"""Frozen instances shared across the suite.

Every number here was pinned by running the named construction once and
recording what came out.  Tests compare against these copies, so a change
in the builders shows up as an explicit diff instead of a silent
recalibration.
"""

import numpy as np

import eigensearch as es

# Reference instance for the error-scaling checks.  The declared gap 0.44
# sits below the smallest pair phase 0.55, so the scheme sizes against the
# same gap the instance declares.
REF12_N = 12
REF12_PAIRS = (0.55, 0.62, 0.70, 0.79)
REF12_SEED = 68
REF12_TARGET = 4
REF12_GAP = 0.44
REF12_ALPHA = 0.001286499368478978
REF12_BOOST = 2.994516971874825

# Two moderate-boost instances whose overlap is close to a twentieth of
# the declared gap; used for the end-to-end boosted run checks.
HIGAIN_N = 48
HIGAIN_PAIRS = tuple(np.round(np.linspace(0.50, 0.68, 19), 3))
HIGAIN_GAP = 0.5
HIGAIN_CASES = ((3, 21), (4, 18))

# Three pair families on the same 32-dimensional eigenbasis.  The basis
# depends only on (n, seed), so reusing a seed across families keeps the
# overlap bit-identical while the second moment changes.
FAM_A = tuple(np.round(np.linspace(0.90, 1.16, 14), 3))
FAM_B = tuple(np.round(np.linspace(0.76, 0.96, 14), 3))
FAM_C = tuple(np.round(np.linspace(0.64, 0.76, 14), 3))
TRIO_N = 32

# Tiny-overlap baseline-comparison trio: postprocessed totals beat the
# repeat-until-hit baseline on all three.
BASELINE_TRIO = ((FAM_A, 1, 8), (FAM_B, 20, 22), (FAM_C, 23, 26))
BASELINE_TRIALS = 1000
BASELINE_SEED_ROOT = 11

# Boost-squared trend: one (seed, target) under all three families, so the
# overlap is pinned at 0.00013291 while the boost walks 2.02 / 2.37 / 2.86.
TREND_SEED = 61
TREND_TARGET = 23

# Retry-schedule demonstration: true gap 0.70 hidden behind a first guess
# four times too large; draw seed 0 verifies on round 11 of a 315 budget.
SCHEDULE_N = 32
SCHEDULE_PAIRS = (0.70, 0.76, 0.83, 0.90, 1.00, 1.40, 1.90)
SCHEDULE_SEED = 2
SCHEDULE_TARGET = 24
SCHEDULE_GUESS = 2.8
SCHEDULE_DRAW_SEED = 0
SCHEDULE_ROUNDS = 11
SCHEDULE_BUDGET = 315

# Same eigenbasis trick on a small register: identical overlap, boost
# doubled from 2.8605 to 5.6204, for the boost-times-log cost check.
DOUBLE_N = 12
DOUBLE_SEED = 0
DOUBLE_TARGET = 10
DOUBLE_GAP = 0.30
DOUBLE_PAIRS_LO = (0.68, 0.69, 0.70, 0.71, 0.72)
DOUBLE_PAIRS_HI = (0.34, 0.345, 0.35, 0.355, 0.36)

# Fixed boost near 2.01 with the overlap halving twice; halfway step
# counts came out 57 / 117 / 234.
HALVING_N = 24
HALVING_PAIRS = (0.55, 0.62, 0.70, 0.79)
HALVING_CASES = ((272, 12), (293, 17), (252, 11))
HALVING_STEPS = (57, 117, 234)

# Twenty weak-coupling instances (overlap over gap at most 0.05) for the
# eigenphase-prediction and secular-equation checks.
PINNED_N = 24
PINNED_PAIRS = (0.70, 0.90, 1.20)
PINNED_CASES = (
    (0, 16), (0, 5), (0, 19), (1, 12), (1, 17),
    (2, 2), (2, 6), (2, 21), (3, 19), (3, 9),
    (3, 11), (4, 8), (4, 1), (5, 10), (5, 21),
    (5, 19), (6, 8), (6, 3), (6, 22), (6, 2),
)

# Eighteen instances spreading the boost over [2, 4] for the halfway-state
# overlap check, six per family.
MIX_N = 24
MIX_FAM_A = (0.55, 0.62, 0.70, 0.79)
MIX_FAM_B = (0.52, 0.56, 0.60, 0.65, 0.70, 0.75, 0.80)
MIX_FAM_C = (0.50, 0.52, 0.55, 0.58, 0.61, 0.64, 0.67, 0.70, 0.73, 0.76)
MIX_CASES = (
    (MIX_FAM_A, 0, 16), (MIX_FAM_A, 6, 8), (MIX_FAM_A, 10, 6),
    (MIX_FAM_A, 16, 20), (MIX_FAM_A, 19, 13), (MIX_FAM_A, 20, 23),
    (MIX_FAM_B, 0, 16), (MIX_FAM_B, 2, 2), (MIX_FAM_B, 6, 8),
    (MIX_FAM_B, 10, 6), (MIX_FAM_B, 16, 10), (MIX_FAM_B, 14, 1),
    (MIX_FAM_C, 0, 16), (MIX_FAM_C, 6, 8), (MIX_FAM_C, 10, 6),
    (MIX_FAM_C, 16, 10), (MIX_FAM_C, 2, 2), (MIX_FAM_C, 14, 1),
)

GROVER_N = 64
GROVER_TARGET = 5

# The first target of the benchmark's n=256 spectral scan (seed 5): overlap
# 0.00744, nearest a sixtieth of the gap, and 252 halfway steps.
SCAN_N = 256
SCAN_PAIRS = tuple(np.linspace(0.5, 1.5, 127))
SCAN_SEED = 5
SCAN_GAP = 0.45
SCAN_TARGET = 164


def symmetric_instance(n, pairs, seed, target, declared_gap=None):
    spec = es.build_symmetric_spec(n, list(pairs), seed, 0, declared_gap)
    return es.SearchInstance.build(spec, target)


def ref12_instance():
    return symmetric_instance(REF12_N, REF12_PAIRS, REF12_SEED, REF12_TARGET,
                              REF12_GAP)


def grover_instance(n=GROVER_N, target=GROVER_TARGET):
    return es.SearchInstance.build(es.build_grover_spec(n, 0), target)


def haar_unitary(n, seed):
    """A seeded Haar-random n x n unitary: the Q of a complex Gaussian
    matrix, its columns rephased by the diagonal of R."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
