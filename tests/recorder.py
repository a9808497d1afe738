"""Record what an inner solver hands the driver, step by step."""

from monosplit import hpe_core, instances


class Recorder:
    """Wrap an inner solver ``w -> Certificate``; keep each ``(w, cert)``.

    With ``alpha = 0`` the point ``w`` of step ``k + 1`` is the iterate
    ``z_k``, so :meth:`iterates` recovers the whole sequence.
    """

    def __init__(self, solver):
        self.solver = solver
        self.steps = []

    def __call__(self, w):
        cert = self.solver(w)
        self.steps.append((w.copy(), cert))
        return cert

    @property
    def certificates(self):
        return [cert for _, cert in self.steps]

    def iterates(self, state):
        """``z_1 .. z_k`` of a run with ``alpha = 0``."""
        return [w for w, _ in self.steps[1:]] + [state.z_curr]


def solve_recorded(problem, kind, params, stop=None):
    """:func:`monosplit.instances.solve`, with the steps recorded; returns
    ``(state, recorder)``."""
    solver, floor = instances.make_inner_solver(problem, kind, params)
    recorder = Recorder(solver)
    state = hpe_core.run(problem, recorder, params, stop=stop,
                         lambda_floor=floor)
    return state, recorder


def classical_iterates(problem, step, params, lam, steps=1000):
    """``z_1 .. z_steps`` of a run with ``alpha = 0`` and no stopping rule
    whose inner solver is ``step(w)``, at the stepsize floor ``lam``."""
    recorder = Recorder(step)
    state = hpe_core.run(problem, recorder, params, lambda_floor=lam,
                         stop=hpe_core.StoppingRule(rho=-1.0, max_iters=steps))
    return recorder.iterates(state)
