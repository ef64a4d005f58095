"""Exact moments of Haar-unitary trace words and the random-matrix
harness that checks them.

The exact layer (exact, combinat, weingarten, haar_expect) computes
E Tr(w) for words in U, U^t, U^-, U* and constant matrices as rational
complex numbers at finite N.  The probabilistic layer (cumulants,
second_order, densities, rmt) predicts and measures trace fluctuations
and spectral distributions.  verify wires both into acceptance checks;
cli exposes everything as the haarlab command.
"""

from .exact import QC, QC_ONE, QC_ZERO
from .combinat import pi_epsilon
from .weingarten import wg_leading, wg_table
from .haar_expect import (TraceProductExpr, TraceWord,
                          expected_trace_product, first_order_limit,
                          load_matrix_csv, parse_trace_product)
from .cumulants import (CumulantFunctional, MomentFunctional,
                        cumulants_to_moments, empirical_cumulants,
                        moments_to_cumulants)
from .second_order import (FirstOrderTable, complex_spoke_prediction,
                           real_spoke_prediction)
from .densities import (arcsine_law, free_self_convolution,
                        kesten_mckay_law)
from .rmt import (HaarU, Sum, Variant, histogram, ks_distance,
                  sample_haar_unitary, spectral_replicas, trace_observables)
from .verify import run_suite, word_nodes

__version__ = "0.1.0"

__all__ = [
    "QC", "QC_ONE", "QC_ZERO", "pi_epsilon",
    "wg_leading", "wg_table", "TraceProductExpr", "TraceWord",
    "expected_trace_product", "first_order_limit", "load_matrix_csv",
    "parse_trace_product", "CumulantFunctional", "MomentFunctional",
    "cumulants_to_moments", "empirical_cumulants", "moments_to_cumulants",
    "FirstOrderTable", "complex_spoke_prediction", "real_spoke_prediction",
    "arcsine_law", "free_self_convolution", "kesten_mckay_law", "HaarU",
    "Sum", "Variant", "histogram", "ks_distance", "sample_haar_unitary",
    "spectral_replicas", "trace_observables", "run_suite", "word_nodes",
]
