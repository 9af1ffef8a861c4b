"""Residual evaluations per call of cvsep's form-II root solve.

    python3 tools/solver_evals.py SRC_DIR

Imports cvsep from ``SRC_DIR`` (the ``src`` directory of a checkout) and
counts the calls to ``standard_form.solve_r2_given_r1`` made inside each
``solve_form_II_root`` call, as the benchmark's ``--trace 1`` does: one per
residual evaluation, that is ``f(1)`` where it is not exact, ``f(n)`` and
each step.  The solver runs on the form-I scalars ``(n, m, c, c')`` of
``sample_random_physical(0..2999)``, of ``symmetric_layout`` (alike modes,
where the solver's first point is the root) and of each symmetrized
``edge_family_matrices`` family (both from ``tests/_util.py``) of seeds
0..299, in both mode orders, skipping the forms ``to_standard_form_II`` flags
degenerate and the matrices ``validate`` rejects.  It prints, per source
and over all of them, the calls, the calls that raised, and the mean, p99
and max evaluations per call.
"""

from __future__ import annotations

import math
import sys

from same_outputs import load_cvsep, util

RANDOM_STATES = 3000
EDGE_SEEDS = 300


def _sources(cv):
    """``{source name: [accepted states]}``."""
    helpers = util()
    sources = {
        "random": [cv.sample_random_physical(seed) for seed in range(RANDOM_STATES)],
        "symmetric": [cv.validate(helpers.symmetric_layout(seed)) for seed in range(EDGE_SEEDS)],
    }
    for family, state in helpers.accepted_edge_states(cv, range(EDGE_SEEDS)):
        sources.setdefault(family, []).append(state)
    return sources


def count_evaluations(cv, states) -> tuple[list[int], int]:
    """Evaluations of each solver call on ``states`` in both mode orders,
    and the number of calls that raised ``RootNotBracketed``."""
    sf = cv.standard_form
    solve_r2 = sf.solve_r2_given_r1
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve_r2(*args)

    evals, raised = [], 0
    sf.solve_r2_given_r1 = counted
    try:
        for state in states:
            n, m, c, cp = state._form_I[:4]
            if c < sf.EPS_FORM or n - 1.0 < sf.EPS_FORM or m - 1.0 < sf.EPS_FORM:
                continue
            for args in ((n, m, c, cp), (m, n, c, cp)):
                calls = 0
                try:
                    sf.solve_form_II_root(*args)
                except cv.RootNotBracketed:
                    raised += 1
                evals.append(calls)
    finally:
        sf.solve_r2_given_r1 = solve_r2
    return evals, raised


def _summary(evals: list[int]) -> str:
    ranked = sorted(evals)
    p99 = ranked[min(len(ranked) - 1, math.ceil(0.99 * len(ranked)) - 1)]
    return f"mean {sum(evals) / len(evals):6.2f}  p99 {p99:3d}  max {ranked[-1]:3d}"


def main(argv: list[str]) -> int:
    cvsep = load_cvsep(argv, "solver_evals.py")
    every = []
    for name, states in _sources(cvsep).items():
        evals, raised = count_evaluations(cvsep, states)
        every += evals
        if evals:
            print(f"{name:22s} calls {len(evals):5d}  raised {raised:3d}  {_summary(evals)}")
    print(f"{'all':22s} calls {len(every):5d}  {'':10s} {_summary(every)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
