"""Every numeric cut in octeig, named once: what it decides, against what.  Each compares
a quantity with the cut times a scale of the same degree, so no decision depends on scale."""

import numpy as np

DEFAULT_TOLERANCE = 1e-8     # a reported residual passes at or below this
ALGEBRA_FACTOR = 1e-4        # verify's octonion-algebra checks pass at this times the tolerance
ASSOCIATOR_TOL = 1e-9        # octonionic: |alpha| above this times |a||b||c|
SPAN_TOL = 1e-9              # a new direction: residual above this times its norm, or s_k times s_0
REAL_RANK_TOL = 1e-7         # rank of a map on R^24: singular values above this times the largest
CLUSTER_TOL = 1e-6           # one cluster: an eigenvalue gap within this times the largest |lam|
NORMALIZE_TOL = 1e-6         # a projection of a unit-size vector is normalized when above this
SINGULAR_CHANGE_TOL = 1e-12  # singular change of basis: |det M| at most this times max |M_ij|^3
DISC_TOL = 1e-9              # ComplexRoots: discriminant below -this s^6, s the size of the roots
NEWTON_TOL = 1e-12           # a Newton step on the cubic needs |f'| above this times s^2
HORNER_EPS = 8.0 * np.finfo(float).eps  # rounding of the cubic's Horner value, relative to s^3
FAMILY_TOL = 1e-8            # same family: the membership residual at most this times |u|^4 |w|
ZERO_PART_TOL = 1e-10        # a six-way part below this times |x| is zero
