"""Benchmark: Section 5 — supervised vs. transductive SVM.

Regenerates the comparison the paper reports in its "Semi-supervised
learning" discussion: the TSVM reaches comparable g-means but is far slower
than the plain SVM on the same schema-expansion task.

The committed result file keeps only the deterministic columns (the two
g-means), so it must regenerate byte-identically on every host; the full
table with the wall-clock columns is printed.
"""

from __future__ import annotations

from repro.experiments.reporting import render_tsvm_rows
from repro.experiments.tsvm_comparison import run_tsvm_comparison
from repro.utils.tables import format_table


def test_section5_tsvm_comparison(benchmark, movie_context, report_writer):
    """Reproduce the Section 5 comparison and benchmark both trainings."""
    rows = benchmark.pedantic(
        run_tsvm_comparison,
        args=(movie_context,),
        kwargs={"genres": ["Comedy", "Horror"], "n_per_class": 20, "seed": 47},
        rounds=1,
        iterations=1,
    )
    print(f"\n{render_tsvm_rows(rows)}\n")
    report_writer(
        "section5_tsvm_comparison",
        format_table(
            ["Genre", "n/class", "SVM g-mean", "TSVM g-mean"],
            [
                (row.genre, row.n_per_class, round(row.svm_gmean, 3), round(row.tsvm_gmean, 3))
                for row in rows
            ],
            title="Section 5. Supervised vs. transductive SVM on schema expansion",
        ),
    )

    for row in rows:
        # Comparable accuracy (the paper saw nearly identical g-means) ...
        assert abs(row.svm_gmean - row.tsvm_gmean) < 0.3
        # ... at a clearly higher runtime for the transductive variant.
        assert row.slowdown > 2.0
