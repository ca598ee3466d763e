"""Print deterministic work counts: the operator evaluations and loops
that carry performance claims which timings on a shared host cannot
resolve.

One line per `gfem_run` (both fields, n_cells 20 and 100, tol 1e-2 and
1e-4, seeds 0-2, n_t 20): adaptive loops run, total evaluations, total
random basis size and dropped reduced columns.  Then one line per seed
0-2 with the evaluations of `adaptive_randomized_range` on the
1/h = 50, width 8 interface operator (tol 1e-4, n_t 20).  Two commits
that print the same lines do the same work.

    PYTHONPATH=src python tools/work_counts.py
"""

from locmor import (RngStream, adaptive_randomized_range, build_gfem_mesh,
                    build_gfem_problem, build_interface_transfer, gfem_field,
                    gfem_run)

EPS_ALGOFAIL = 1e-15
N_T = 20
SEEDS = range(3)


def gfem_lines():
    for field in ("uniform", "channels"):
        pde, source = gfem_field(field)
        for n_cells in (20, 100):
            problem = build_gfem_problem(build_gfem_mesh(n_cells), pde,
                                         source)
            for tol in (1e-2, 1e-4):
                for seed in SEEDS:
                    result, spaces = gfem_run(problem, tol, N_T,
                                              EPS_ALGOFAIL, seed)
                    # patches that reuse a space hold the same basis
                    loops = len({id(s.random_basis) for s in spaces})
                    yield (f"gfem {field} n_cells={n_cells} tol={tol:.0e} "
                           f"seed={seed} loops={loops} "
                           f"evaluations={sum(s.evaluations for s in spaces)} "
                           f"n_random={sum(s.n_random for s in spaces)} "
                           f"dropped={result.dropped_columns}")


def interface_lines():
    op = build_interface_transfer(50, 1.0, 8.0)
    for seed in SEEDS:
        basis = adaptive_randomized_range(op, 1e-4, N_T, EPS_ALGOFAIL,
                                          RngStream(seed))
        yield (f"interface h_inv=50 width=8 seed={seed} "
               f"evaluations={basis.evaluations}")


if __name__ == "__main__":
    for line in (*gfem_lines(), *interface_lines()):
        print(line)
