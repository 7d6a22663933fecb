"""Machine-learning substrate used by the schema-expansion extractor.

The paper trains Support Vector Machines (RBF kernel) on perceptual-space
coordinates, compares against an LSI "metadata space" baseline, and briefly
evaluates transductive SVMs.  scikit-learn is not available in this offline
environment, so the required algorithms are implemented here on top of
numpy/scipy: kernels, an SVC solved by SMO with second-order working-set
selection and a duality-gap stop (deterministic: it draws no random
numbers), an ε-insensitive kernel SVR, a label-switching TSVM, latent
semantic indexing and the evaluation metrics (including the g-mean
measure used throughout Section 4).
"""

from repro.learn.kernels import Kernel, LinearKernel, PolynomialKernel, RBFKernel, resolve_kernel
from repro.learn.lsi import LatentSemanticIndex, TfIdfVectorizer, tokenize_text
from repro.learn.metrics import (
    ClassificationReport,
    accuracy,
    confusion_matrix,
    g_mean,
    pearson_correlation,
    precision_recall,
    sensitivity_specificity,
)
from repro.learn.model_selection import (
    sample_balanced_training_set,
    stratified_split,
    train_test_split,
)
from repro.learn.scaling import StandardScaler
from repro.learn.svm import SVC
from repro.learn.svr import SVR
from repro.learn.tsvm import TransductiveSVC

__all__ = [
    "ClassificationReport",
    "Kernel",
    "LatentSemanticIndex",
    "LinearKernel",
    "PolynomialKernel",
    "RBFKernel",
    "SVC",
    "SVR",
    "StandardScaler",
    "TfIdfVectorizer",
    "TransductiveSVC",
    "accuracy",
    "confusion_matrix",
    "g_mean",
    "pearson_correlation",
    "precision_recall",
    "resolve_kernel",
    "sample_balanced_training_set",
    "sensitivity_specificity",
    "stratified_split",
    "tokenize_text",
    "train_test_split",
]
