"""Operator-valued kernels, block Gram matrices, a finite-span RKHS
calculus, and Hilbert-space-valued Gaussian process sampling."""

from .kernels import (
    KernelSpecError,
    OperatorKernel,
    SpecDomainError,
    SpecSyntaxError,
    continuity_increment,
    evaluate,
    induced_scalar,
    make_kernel,
    parse_kernel_spec,
    render_spec,
    two_space_form,
)
from .gram import (
    BlockGram,
    IndefiniteMatrixError,
    SpectrumReport,
    assemble_gram,
    factorize,
    psd_check,
    spectral_decay_profile,
)
from .rkhs import (
    RkhsContext,
    RkhsElement,
    TransformFamily,
    chain_apply,
    covariance,
    evaluate_element,
    feature_adjoint,
    frame_projection,
    inner_product,
    make_context,
    onb_expansion,
    section,
    transformed_adjoint,
    transformed_embed,
    verify_identities,
)
from .gp import (
    CovErrorReport,
    SampleBatch,
    covariance_error_report,
    empirical_covariance,
    sample_paths,
)

__version__ = "0.1.0"
