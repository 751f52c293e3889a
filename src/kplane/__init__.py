"""k-plane transform toolkit.

Numerical k-plane (Radon/X-ray) transforms in R^d parameterized by Stiefel
frames, filtered backprojection inversion, Fourier-slice and isotropy
diagnostics, and sparse ridge-atom recovery.
"""

from .errors import DomainError, FormatError, TruncationWarning
from .geometry import (
    Frame,
    Rotation,
    RngSeed,
    align_rotation,
    c_constant,
    complete_frame,
    frobenius_distance,
    haar_frame_sample,
    haar_orthogonal_sample,
    orbit_distance,
    rotate_pair,
    sphere_area,
    stiefel_total_mass,
)
from .fields import (
    FieldInterpolator,
    GridField,
    GridSpec,
    QuadSpec,
    Sinogram,
    TGrid,
    integrate,
    read_kpt,
    write_kpt,
)
from .filters import (
    RadialTable,
    apply_radial,
    bessel_j,
    bessel_spec,
    gaussian_spec,
    green_rbf,
    hankel_profile,
    inverse_radial_profile,
    ramp_filter,
    ramp_spec,
)
from .transform import (
    FrameSet,
    backproject,
    calibrate_gain,
    fbp,
    field_dot,
    forward,
    forward_at,
    frameset_circle,
    frameset_haar,
    moment_integral,
    rel_l2_error,
    sino_dot,
    sino_norm,
)
from .analytic import (
    RidgeAtom,
    gaussian_field,
    gaussian_kplane,
    isotropic_kplane,
    mixture_centroid,
    mixture_field,
    ridge_eval,
    ridge_sum_field,
    slice_pair,
)
from .isotropy import MollifiedAtom, pk_project, project_iso, render_delta_iso
from .sparse import (
    Dictionary,
    LassoProblem,
    MeasurementSet,
    assemble,
    build_dictionary,
    kkt_residuals,
    reconstruct,
    reg_cost,
    solve_lasso,
    support,
)

__version__ = "0.1.0"
