"""Walk the graded construction of the resonant normal form.

Computes the order-2 normal form on a small mode cutoff, prints the exact
rational coefficient tables stage by stage, and checks the homological
cancellations that define them. Every stage is the same field type: the
polynomial stages carry no divisors, the rational continuation of K5 does.
"""

from fractions import Fraction

from stringnf.nf_engine import (
    chi3_explicit,
    commutator,
    quintic_rational_solve,
    resonant_normal_form,
    taylor_vf,
    z1_field,
)

N = 6


def show(label, vf, limit=4):
    print(f"  {label}: {len(vf.terms)} terms, orders {sorted(vf.orders())}")
    for (a, kind, j, h2, h4, kk), c in sorted(vf.terms.items())[:limit]:
        over = f"  over {h2 + h4 + kk}" if h2 or h4 or kk else ""
        print(f"    mode {a:+d}  {kind:<4}  j={j}{over}  coeff {c}")
    if len(vf.terms) > limit:
        print(f"    ... {len(vf.terms) - limit} more")


def main():
    print(f"resonant normal form, order 2, cutoff N={N}")
    nf = resonant_normal_form(2, N)

    print("\ncubic stage")
    show("taylor cubic term", taylor_vf(1, N))
    show("resonant remainder Z3", nf.z3)
    chi3 = chi3_explicit(N)
    show("generator chi3", chi3)
    res = commutator(z1_field(N), chi3) + taylor_vf(1, N) - nf.z3
    print(f"  homological residual is_zero: {res.is_zero()}")

    print("\nquintic stage")
    show("integrable part Z5", nf.z5)
    show("non-integrable part K5", nf.k5)
    full = nf.resonant_quintic
    print(f"  resonant quintic total: {len(full.terms)} terms")

    print("\nrational continuation of K5")
    s_gen, m_gen = quintic_rational_solve(nf.k5, N)
    show("S generator", s_gen, limit=2)
    show("M generator", m_gen, limit=2)
    peak = max(abs(c.re) + abs(c.im) for c in nf.k5.terms.values())
    print(f"  largest |K5| coefficient: {peak} = {float(peak):.6f}")


if __name__ == "__main__":
    main()
