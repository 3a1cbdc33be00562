"""Print the sha256 of the ordered term list of 224 exact fields, as JSON.

    python tools/term_lists.py [--checkout DIR] [--out PATH]

Each field ``f`` is hashed as ``sha256(repr(list(f.terms.items())))``, so two
checkouts that build the same terms with the same coefficients in the same
order print the same document. ``--checkout`` names the source checkout whose
``src/`` is imported (default: the one holding this script), so a parent and a
change compare with one ``diff``:

    diff <(python tools/term_lists.py --checkout ../parent) <(python tools/term_lists.py)

The fields, 224 in all:

- ``taylor_vf(l, M)`` for l = 1..4 and M = 1..8;
- at (r, N) = (2, 4), (2, 6), (2, 8), (3, 2), (3, 3) and (3, 4), everything
  ``resonant_normal_form`` returns (``z1``, ``z3``, ``z5``, ``k5``, ``k7`` and
  ``resonant_quintic``), its generators, and ``commutator(z1_field(M), g)``
  for each generator ``g`` at M = N and N + 2, with and without the cutoff;
- nf-verify's cubic and quintic residuals and ``h5`` at N = 4, 6 and 8;
- ``quintic_rational_solve`` at N = 4, 5, 6 and 8: ``s``, ``m``, ``s + m``,
  the bracket against ``z3``, the cascade total, the action coupling of ``s``
  and of ``m``, and the brackets of ``z1_field(N)`` with ``s`` and ``m``;
- at N = 2, 3 and 4: the septic input ``q``, the four outputs of
  ``solve_homological_z3z5``, the bracket against ``z3 + z5``, the residual,
  the action and frequency couplings of ``chi``, and ``[z1_field(M), chi]``
  for M = N - 1, N and N + 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, Tuple

NF_CONFIGS = ((2, 4), (2, 6), (2, 8), (3, 2), (3, 3), (3, 4))
NF_PARTS = ("z1", "z3", "z5", "k5", "k7", "resonant_quintic")


def fields() -> Iterator[Tuple[str, object]]:
    """``(name, field)`` for every hashed field, in a fixed order."""
    from stringnf.nf_engine import (
        chi3_explicit,
        commutator,
        quintic_rational_solve,
        resonant_normal_form,
        septic_stage_input,
        solve_homological_z3z5,
        taylor_vf,
        z1_field,
    )
    from stringnf.nf_engine.solvers import _action_coupling, _frequency_coupling

    for l in range(1, 5):
        for M in range(1, 9):
            yield f"taylor_vf({l}, {M})", taylor_vf(l, M)

    for r, N in NF_CONFIGS:
        nf = resonant_normal_form(r, N)
        name = f"resonant_normal_form({r}, {N})"
        for part in NF_PARTS:
            yield f"{name}.{part}", getattr(nf, part)
        for stage, g in nf.generators.items():
            yield f"{name}.generators[{stage}]", g
            for M in (N, N + 2):
                yield f"commutator(z1_field({M}), {name}.generators[{stage}])", commutator(z1_field(M), g)
                yield f"commutator(z1_field({M}), {name}.generators[{stage}], {N})", commutator(z1_field(M), g, N)

    # the two polynomial identities of nf-verify, built as it builds them
    for N in (4, 6, 8):
        nf = resonant_normal_form(2, N)
        chi3, z1, p3 = chi3_explicit(N), z1_field(N), taylor_vf(1, N)
        z1_chi3 = commutator(z1, chi3)
        h5 = taylor_vf(2, N) + commutator(p3, chi3) + commutator(z1_chi3, chi3).scale(Fraction(1, 2))
        yield f"nf_verify({N}).resid3", z1_chi3 + p3 - nf.z3
        yield f"nf_verify({N}).h5", h5
        yield f"nf_verify({N}).resid5", commutator(z1, nf.generators[2]) + h5 - (nf.z5 + nf.k5)

    for N in (4, 5, 6, 8):
        nf = resonant_normal_form(2, N)
        s, m = quintic_rational_solve(nf.k5, N)
        name = f"quintic_rational_solve({N})"
        bracket = commutator(nf.z3, s + m, N)
        yield f"{name}.s", s
        yield f"{name}.m", m
        yield f"{name}.s + m", s + m
        yield f"{name}.[z3, s + m]", bracket
        yield f"{name}.total", bracket + nf.k5
        yield f"{name}.action_coupling(s)", _action_coupling(s)
        yield f"{name}.action_coupling(m)", _action_coupling(m)
        yield f"{name}.[z1_field({N}), s]", commutator(z1_field(N), s)
        yield f"{name}.[z1_field({N}), m]", commutator(z1_field(N), m)

    for N in (2, 3, 4):
        nfs = resonant_normal_form(3, N)
        q = septic_stage_input(nfs)
        chi, z_int, echo_same, echo_down = solve_homological_z3z5(q, N)
        name = f"septic({N})"
        bracket = commutator(nfs.z3 + nfs.z5, chi, N)
        yield f"{name}.q", q
        yield f"{name}.chi", chi
        yield f"{name}.z_int", z_int
        yield f"{name}.echo_same", echo_same
        yield f"{name}.echo_down", echo_down
        yield f"{name}.[z3 + z5, chi]", bracket
        yield f"{name}.residual", bracket + q - z_int - echo_same - echo_down
        yield f"{name}.action_coupling(chi)", _action_coupling(chi)
        yield f"{name}.frequency_coupling(chi)", _frequency_coupling(chi, N)
        for M in (N - 1, N, N + 2):
            yield f"{name}.[z1_field({M}), chi]", commutator(z1_field(M), chi, N)


def term_lists() -> Dict[str, str]:
    out: Dict[str, str] = {}
    for name, f in fields():
        if name in out:
            raise AssertionError(f"field {name} is listed twice")
        out[name] = hashlib.sha256(repr(list(f.terms.items())).encode()).hexdigest()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source checkout whose src/ is imported (default: this script's)")
    parser.add_argument("--out", type=Path, help="write the JSON here instead of to stdout")
    args = parser.parse_args()
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    text = json.dumps(term_lists(), indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
