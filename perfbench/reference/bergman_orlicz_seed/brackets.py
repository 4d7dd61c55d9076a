"""Recorded calibration constants.

CESARO_LOWER_OVER_M_MIN is the floor used by the boundedness suite for the
ratio (family lower bound on ||T_g||) / (Bloch seminorm of g).  It was frozen
from a calibration sweep over the twelve stock combinations (symbols z1,
z1^2, z1+z1^2; growth functions t^(1/2), t^2; weights alpha 0 and 1; n = 1,
seed 0) whose observed ratios were

    0.5424* 0.6058  0.7359  0.7750  0.7849  0.8418
    0.9945  0.9952  1.2348  1.3254  1.4339  1.4506

(* minimum 0.542379, at t^(1/2), alpha = 1, g = z1^2).  The floor is set a
notch below the minimum so the suite detects a real loss of the two-sided
comparison rather than noise, while staying far above the 0.1 sanity line.
"""

CESARO_LOWER_OVER_M_MIN = 0.5
