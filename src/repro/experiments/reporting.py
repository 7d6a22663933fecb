"""Rendering experiment results as the paper's tables.

Each ``render_*`` function takes the row objects produced by an experiment
module and returns a plain-text table whose columns match the corresponding
table in the paper.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.boosting import BoostingSeries
from repro.experiments.crowd_quality import CrowdQualityRow
from repro.experiments.neighbors import NeighborColumn
from repro.experiments.other_domains import OtherDomainRow
from repro.experiments.questionable import QuestionableRow
from repro.experiments.small_samples import SmallSampleRow
from repro.experiments.tsvm_comparison import TSVMComparisonRow
from repro.utils.tables import format_table


def render_table1(rows: Sequence[CrowdQualityRow]) -> str:
    """Table 1: classification accuracy of direct crowd-sourcing."""
    return format_table(
        ["Evaluation", "#Classified", "%Correct", "Time (min)", "Cost ($)", "Workers"],
        [
            (
                row.experiment,
                row.n_classified,
                f"{row.percent_correct * 100:.1f}%",
                round(row.minutes, 1),
                round(row.cost, 2),
                row.n_workers,
            )
            for row in rows
        ],
        title="Table 1. Classification accuracy for direct crowd-sourcing",
    )


def render_table2(columns: Sequence[NeighborColumn], purity: float) -> str:
    """Table 2: example items and their nearest neighbours."""
    max_neighbors = max((len(column.neighbors) for column in columns), default=0)
    headers = [column.anchor_name for column in columns]
    rows = []
    for index in range(max_neighbors):
        row = []
        for column in columns:
            if index < len(column.neighbors):
                _id, name, distance = column.neighbors[index]
                row.append(f"{name} ({distance:.2f})")
            else:
                row.append("")
        rows.append(row)
    table = format_table(headers, rows, title="Table 2. Nearest neighbours in perceptual space")
    return f"{table}\nNeighbourhood label purity (Comedy, k=5): {purity:.3f}"


def render_table3(rows: Sequence[SmallSampleRow], n_values: Sequence[int] = (10, 20, 40)) -> str:
    """Table 3: automatic schema expansion from small samples (g-means)."""
    headers = ["Genre", "Random"]
    headers += [f"Perc n={n}" for n in n_values]
    headers += [f"Meta n={n}" for n in n_values]
    first_reference = rows[0].reference if rows else {}
    reference_names = sorted(first_reference)
    headers += [f"Ref {name}" for name in reference_names]
    table_rows = []
    for row in rows:
        cells: list[object] = [row.genre, row.random_baseline]
        cells += [round(row.perceptual.get(n, float("nan")), 2) for n in n_values]
        cells += [round(row.metadata.get(n, float("nan")), 2) for n in n_values]
        cells += [round(row.reference.get(name, float("nan")), 2) for name in reference_names]
        table_rows.append(cells)
    return format_table(
        headers, table_rows, title="Table 3. Automatic schema expansion from small samples (g-mean)"
    )


def render_table4(rows: Sequence[QuestionableRow], noise_keys: Sequence[int] = (5, 10, 20)) -> str:
    """Table 4: identification of questionable HIT responses (precision/recall)."""
    headers = ["Genre"]
    headers += [f"Perc x={x}%" for x in noise_keys]
    headers += [f"Meta x={x}%" for x in noise_keys]
    table_rows = []
    for row in rows:
        cells: list[object] = [row.genre]
        for key in noise_keys:
            precision, recall = row.perceptual.get(key, (float("nan"), float("nan")))
            cells.append(f"{precision:.2f}/{recall:.2f}")
        for key in noise_keys:
            precision, recall = row.metadata.get(key, (float("nan"), float("nan")))
            cells.append(f"{precision:.2f}/{recall:.2f}")
        table_rows.append(cells)
    return format_table(
        headers,
        table_rows,
        title="Table 4. Automatic identification of questionable HIT responses (precision/recall)",
    )


def render_other_domain_table(
    rows: Sequence[OtherDomainRow], *, title: str, n_values: Sequence[int] = (10, 20, 40)
) -> str:
    """Tables 5 and 6: g-means for the restaurant / board-game domains."""
    headers = ["Category"] + [f"n={n}" for n in n_values]
    table_rows = [
        [row.category] + [round(row.gmeans.get(n, float("nan")), 2) for n in n_values]
        for row in rows
    ]
    return format_table(headers, table_rows, title=title)


def render_boosting_series(series: Sequence[BoostingSeries]) -> str:
    """Figures 3 and 4 as a text table: correct classifications over time and money."""
    headers = [
        "Experiment", "rel. time", "minutes", "cost ($)",
        "training size", "crowd correct", "boosted correct",
    ]
    rows = []
    for entry in series:
        for point in entry.points:
            rows.append(
                (
                    entry.experiment,
                    round(point.relative_time, 2),
                    round(point.minutes, 1),
                    round(point.cost, 2),
                    point.training_size,
                    point.crowd_correct,
                    point.boosted_correct,
                )
            )
    return format_table(
        headers, rows, title="Figures 3 & 4. Correctly classified items over time and money"
    )


def render_tsvm_rows(rows: Sequence[TSVMComparisonRow]) -> str:
    """Section 5: SVM vs. TSVM accuracy and runtime."""
    return format_table(
        ["Genre", "n/class", "SVM g-mean", "SVM s", "TSVM g-mean", "TSVM s", "slowdown"],
        [
            (
                row.genre,
                row.n_per_class,
                round(row.svm_gmean, 3),
                round(row.svm_seconds, 3),
                round(row.tsvm_gmean, 3),
                round(row.tsvm_seconds, 3),
                round(row.slowdown, 1),
            )
            for row in rows
        ],
        title="Section 5. Supervised vs. transductive SVM on schema expansion",
    )
