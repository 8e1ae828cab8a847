"""Weighted shifts on rootless directed trees: kernels, weights, series
diagnostics, and the decomposition verdict."""

from .errors import (DegenerateNormError, DivergentSeriesError,
                     MalformedTreeError, MissingWeightError, PreconditionError,
                     ResourceCapError, UndecidedSeriesError, UnknownVertexError,
                     WoldlabError)
from .tree_core import (AdjacencyKernel, Budget, TkInfKernel, TqbKernel,
                        TreeKernel, Window, ZPathKernel, child_n, descend,
                        enum_A, load_adjacency, make_kernel, operation, par_n,
                        path_vertex, shell, window_depth_classes,
                        window_vertices)
from .weights import (CauchyDualWeights, ConstantWeights, CsvWeights,
                      FunctionWeights, PolyRule, Prop51Weights,
                      TkinfIsometricWeights, WeightSystem, boundedness_estimate,
                      cauchy_dual, ex52_weights, is_balanced,
                      is_norm_increasing, load_weight_csv, make_weights,
                      shift_norm_sq)
from .operator import (SparseVector, apply_adjoint, apply_power, apply_shift,
                       classify, defect_diagonal, inner,
                       ker_adjoint_local_basis, wandering_orthogonality_check)
from .series import (AlphaPartial, HyperRangeVector, SeriesConfig,
                     SeriesVerdict, alpha_partial, alpha_verdict,
                     g_vector, generation_stream, hyperrange_recurrence_check)
from .wold import (DecompositionReport, WoldVerdict, case_ii_weight_relation,
                   decomposition_report, wold_verdict)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
