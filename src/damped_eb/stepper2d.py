"""The compact scheme for the damped plate on (0, 1)^2.

The plate runs the scheme of :mod:`damped_eb.stepper1d` on a ``Grid2D``:
the tensor operators H and Phi take the places of A and D, the f-norm
gives the damping coefficient q_n = P(||V^n||_f^2), and every step is
elementwise on the tensor sine coefficients.  This module holds the 2D
names of the shared problem data and stepper: ``Problem2D`` is the beam's
``Problem1D`` with dimension 2, which is all the harness and the command
line read to build a ``Grid2D``.
"""
from __future__ import annotations

import numpy as np

from .damping import DampingLaw
from .stepper1d import (
    EnergyRecord,
    Problem1D,
    StepperState,
    energy,
    init,
    run,
    stability_check,
    step,
)

__all__ = [
    "Problem2D",
    "StepperState2D",
    "init2d",
    "step2d",
    "energy2d",
    "run2d",
    "stability_check2d",
]


class Problem2D(Problem1D):
    """Plate problem data; expressions in (x, y, t), u0/u1 independent of t."""

    dimension = 2


StepperState2D = StepperState
init2d = init
run2d = run
stability_check2d = stability_check


def step2d(
    state: StepperState, f_n: np.ndarray, tau: float, law: DampingLaw
) -> StepperState:
    """One nodal step of a plate state (:func:`damped_eb.stepper1d.step`)."""
    return step(state, f_n, tau, law)


def energy2d(state: StepperState, tau: float) -> EnergyRecord:
    """Energy of a plate state (:func:`damped_eb.stepper1d.energy`)."""
    return energy(state, tau)
