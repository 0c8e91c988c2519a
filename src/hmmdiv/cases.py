"""The eight benchmark case pairs and their reference values.

Every case belongs to the two-lag family; parameters are given in the order
(p01, p10, (mu0, mu1), phi, psi1, psi2, sigma). theta1 is the generating
model, theta the alternative, and the divergence computed is the rate of
theta1 from theta.

REFERENCE holds the benchmark values both engines are expected to
reproduce at the default configuration (N = 16, a = 15 for the
deterministic method; n = 2000, reps = 100 for simulation). The values
were produced independently of this implementation, so they serve as a
genuine regression baseline for the CLI's `--check` mode and the
acceptance suite. REFERENCE[alpha][case] maps to (deterministic,
simulated mean, simulated sd); the sd column doubles as the tolerance
scale for cross-method comparisons.

Case 8 gives both hidden states identical emission laws, collapsing each
model to an i.i.d. Gaussian: KL and Renyi rates then have closed forms,
which makes it the calibration anchor.
"""

from __future__ import annotations

from .models import ModelBParams

ALPHA_GRID = (0.5, 0.8, 0.99, 0.999, "kl", 1.001, 1.01, 1.5, 2.0)

# case number -> (theta1 generating, theta alternative)
CASES: dict[int, tuple[ModelBParams, ModelBParams]] = {
    1: (
        ModelBParams(0.41, 0.6, (2.0, 1.0), 0.0, 1.0, 0.0, 1.5),
        ModelBParams(0.41, 0.6, (1.0, 0.0), 0.0, 1.0, 0.0, 2.0),
    ),
    2: (
        ModelBParams(0.41, 0.59, (2.0, 1.0), 0.0, 1.0, 0.0, 1.6),
        ModelBParams(0.41, 0.59, (1.0, 0.0), 0.0, 1.0, 0.0, 2.0),
    ),
    3: (
        ModelBParams(0.4, 0.59, (2.0, 1.0), 0.0, 1.0, 0.0, 0.9),
        ModelBParams(0.4, 0.59, (1.0, 0.0), 0.0, 1.0, 0.0, 1.0),
    ),
    4: (
        ModelBParams(0.4, 0.599, (2.0, 1.0), 0.0, 1.0, 0.0, 0.9),
        ModelBParams(0.4, 0.599, (1.0, 0.0), 0.0, 1.0, 0.0, 1.0),
    ),
    5: (
        ModelBParams(0.59, 0.4, (2.0, 1.0), 0.0, 1.0, 0.0, 0.9),
        ModelBParams(0.59, 0.4, (1.0, 0.0), 0.0, 1.0, 0.0, 1.0),
    ),
    6: (
        ModelBParams(0.599, 0.4, (2.0, 1.0), 0.3, 1.0, 0.0, 1.1),
        ModelBParams(0.599, 0.4, (1.0, 0.0), 0.2, 1.0, 0.0, 1.0),
    ),
    7: (
        ModelBParams(0.4, 0.59, (2.0, 1.0), 0.1, 1.0, 0.1, 1.0),
        ModelBParams(0.4, 0.59, (1.0, 0.0), 0.2, 1.0, 0.2, 1.1),
    ),
    8: (
        ModelBParams(0.4, 0.59, (2.0, 2.0), 0.0, 1.0, 0.0, 0.9),
        ModelBParams(0.4, 0.59, (1.0, 1.0), 0.0, 1.0, 0.0, 1.0),
    ),
}

# REFERENCE[alpha][case] = (deterministic value, simulation mean, simulation sd)
REFERENCE: dict[object, dict[int, tuple[float, float, float]]] = {
    0.5: {
        1: (0.1091, 0.1097, 0.0145),
        2: (0.0921, 0.0927, 0.0133),
        3: (0.2196, 0.2211, 0.0214),
        4: (0.2211, 0.2220, 0.0214),
        5: (0.2225, 0.2239, 0.0217),
        6: (0.2723, 0.2733, 0.026),
        7: (0.1227, 0.1293, 0.015),
        8: (0.2818, 0.2826, 0.0247),
    },
    0.8: {
        1: (0.1533, 0.1538, 0.0114),
        2: (0.1324, 0.1329, 0.0109),
        3: (0.3372, 0.3382, 0.0191),
        4: (0.3387, 0.3395, 0.0192),
        5: (0.3366, 0.3374, 0.0189),
        6: (0.4566, 0.4575, 0.0275),
        7: (0.1939, 0.1979, 0.0131),
        8: (0.4243, 0.4250, 0.0212),
    },
    0.99: {
        1: (0.1762, 0.1767, 0.0101),
        2: (0.1541, 0.1546, 0.0099),
        3: (0.4072, 0.4079, 0.0184),
        4: (0.4087, 0.4094, 0.0185),
        5: (0.4032, 0.4036, 0.018),
        6: (0.5850, 0.5857, 0.0295),
        7: (0.2363, 0.2388, 0.0124),
        8: (0.5062, 0.5068, 0.0199),
    },
    0.999: {
        1: (0.1772, 0.1777, 0.0101),
        2: (0.1550, 0.1555, 0.0099),
        3: (0.4104, 0.4111, 0.0184),
        4: (0.4120, 0.4127, 0.0184),
        5: (0.4063, 0.4067, 0.018),
        6: (0.5913, 0.5921, 0.0296),
        7: (0.2382, 0.2407, 0.0123),
        8: (0.5099, 0.5105, 0.0198),
    },
    "kl": {
        1: (0.1773, 0.1780, 0.0101),
        2: (0.1552, 0.1558, 0.0099),
        3: (0.4108, 0.4114, 0.0184),
        4: (0.4123, 0.4129, 0.0184),
        5: (0.4066, 0.4070, 0.0179),
        6: (0.5920, 0.5928, 0.0296),
        7: (0.2386, 0.2407, 0.0123),
        8: (0.5104, 0.5106, 0.0198),
    },
    1.001: {
        1: (0.1774, 0.1779, 0.0101),
        2: (0.1553, 0.1557, 0.0099),
        3: (0.4112, 0.4118, 0.0184),
        4: (0.4127, 0.4134, 0.0184),
        5: (0.4069, 0.4073, 0.0179),
        6: (0.5927, 0.5935, 0.0296),
        7: (0.2387, 0.2411, 0.0123),
        8: (0.5108, 0.5113, 0.0198),
    },
    1.01: {
        1: (0.1784, 0.1789, 0.01),
        2: (0.1562, 0.1567, 0.0098),
        3: (0.4144, 0.4150, 0.0184),
        4: (0.4159, 0.4166, 0.0184),
        5: (0.4100, 0.4104, 0.0179),
        6: (0.5991, 0.5999, 0.0298),
        7: (0.2406, 0.2430, 0.0123),
        8: (0.5145, 0.5151, 0.0198),
    },
    1.5: {
        1: (0.2248, 0.2253, 0.0081),
        2: (0.2014, 0.2019, 0.0082),
        3: (0.5807, 0.5806, 0.0178),
        4: (0.5823, 0.5828, 0.0178),
        5: (0.5650, 0.5645, 0.0171),
        6: (0.9971, 0.9967, 0.0437),
        7: (0.3418, 0.3411, 0.0113),
        8: (0.6995, 0.7000, 0.0181),
    },
    2.0: {
        1: (0.2601, 0.2606, 0.0069),
        2: (0.2370, 0.2374, 0.0071),
        3: (0.7330, 0.7321, 0.0181),
        4: (0.7345, 0.7348, 0.0181),
        5: (0.7054, 0.7041, 0.0174),
        6: (1.5699, 1.5548, 0.1445),
        7: (0.4364, 0.4335, 0.0114),
        8: (0.8587, 0.8590, 0.0176),
    },
}
