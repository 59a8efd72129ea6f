"""Command-line front end: batch verification, classification, homology
computation, quasi-isomorphism comparison, and cochain products.

Braided sets are given either as JSON files or by catalog shorthand:
identity:n, minmax:n, flip:n, size2:<tag>, lattice:<file>,
factorization:<file>, assoc:<monoid-file>.

Exit codes: 0 pass, 1 property failure, 2 input error, 3 resource bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import catalog, hochschild
from .braided import (
    BoundExceeded,
    BraidedSet,
    BraidedSetError,
    check_idempotent,
    check_pseudo_unit,
    check_ybe,
    verify_braided_semigroup,
)
from .bimodules import Bimodule, trivial_bimodule, verify_bimodule
from .complexes import braided_chain_complex, critical_complex
from .monoid import FiniteMonoid
from .products import Cochain, check_homotopy_identity, circle_product, cup_left_right, cup_product, quantum_symmetrizer
from .zlinalg import homology, verify_complex

class InputError(ValueError):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_braiding(spec: str):
    """Expand catalog shorthand or load a braided-set JSON file.

    Returns (BraidedSet, Factorization or None).
    """
    kind, _, arg = spec.partition(":")
    try:
        if kind == "identity":
            return catalog.identity_braiding(int(arg)), None
        if kind == "minmax":
            return catalog.minmax_braiding(int(arg)), None
        if kind == "flip":
            return catalog.flip_braiding(int(arg)), None
        if kind == "size2":
            return catalog.size2_family(arg), None
        if kind == "lattice":
            lat = catalog.FiniteLattice.from_json(_load_json(arg))
            return catalog.lattice_braiding(lat), None
        if kind == "factorization":
            data = _load_json(arg)
            g = FiniteMonoid.from_json(data["monoid"])
            fact = catalog.exact_factorization(g, data["H"], data["K"])
            return fact.braiding, fact
        if kind == "assoc":
            g = FiniteMonoid.from_json(_load_json(arg))
            fact = catalog.trivial_factorization(g)
            return fact.braiding, fact
    except (BraidedSetError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad braiding spec {spec!r}: {exc}") from exc
    if not os.path.exists(spec):
        raise InputError(f"unknown braiding spec {spec!r} and no such file")
    try:
        return BraidedSet.from_json(_load_json(spec), name=spec), None
    except (BraidedSetError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad braided-set file {spec!r}: {exc}") from exc


def load_coefficients(spec: str, bs: BraidedSet) -> Bimodule:
    try:
        if spec.startswith("trivial"):
            _, _, r = spec.partition(":")
            return trivial_bimodule(bs, int(r) if r else 1)
        data = _load_json(spec)
        m = Bimodule.from_json(data, bs.size)
    except (ValueError, KeyError, TypeError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"bad coefficient spec {spec!r}: {exc}") from exc
    rep = verify_bimodule(bs, m)
    if not rep.holds:
        raise InputError(f"coefficient file violates the module laws: {rep.detail}")
    return m


def write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".braidhom-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        write_output(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
        return
    lines = _textualize(payload)
    write_output("\n".join(lines) + "\n", args.out)


def _textualize(payload, prefix="") -> list[str]:
    lines = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{prefix}{key}:")
                lines.extend(_textualize(value, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.extend(_textualize(value, prefix + "  "))
                lines.append(prefix + "  -")
            else:
                lines.append(f"{prefix}- {value}")
    return lines


# --- subcommands -------------------------------------------------------------

def cmd_verify(args) -> int:
    bs, _ = load_braiding(args.braiding)
    wanted = []
    for name in ("ybe", "idempotent", "pseudo_unit", "semigroup", "bimodule"):
        if getattr(args, name):
            wanted.append(name)
    if not wanted:
        wanted = ["ybe", "idempotent"]
        if bs.pseudo_unit is not None:
            wanted.append("pseudo_unit")
    checks = []
    for name in wanted:
        if name == "ybe":
            rep = check_ybe(bs)
        elif name == "idempotent":
            rep = check_idempotent(bs)
        elif name == "pseudo_unit":
            if bs.pseudo_unit is None:
                raise InputError("braiding has no pseudo-unit to check")
            rep = check_pseudo_unit(bs, bs.pseudo_unit, bound=args.bound)
        elif name == "semigroup":
            rep = verify_braided_semigroup(bs, args.maxlen)
        else:
            m = load_coefficients(args.bimodule, bs)
            rep = verify_bimodule(bs, m)
        entry = rep.to_dict()
        entry["check"] = name
        checks.append(entry)
    ok = all(c["holds"] for c in checks)
    _emit({"braiding": bs.name, "checks": checks, "ok": ok}, args)
    return 0 if ok else 1


def cmd_classify(args) -> int:
    report = catalog.enumerate_idempotent_braidings(args.size)
    payload = {
        "size": args.size,
        "class_count": report.class_count,
        "raw_count": report.raw_count,
        "classes": [
            {"representative": c.to_json(), "orbit_size": o}
            for c, o in zip(report.classes, report.orbit_sizes)
        ],
    }
    _emit(payload, args)
    return 0


def _homology_payload(cx, up_to):
    degrees = []
    for k in range(up_to + 1):
        inv = homology(cx, k)
        degrees.append({"degree": k, "betti": inv.betti, "torsion": list(inv.torsion), "group": str(inv)})
    return degrees


def _check_maxdeg(k: int) -> int:
    if not 0 <= k <= 8:
        raise InputError("maxdeg must be between 0 and 8 (word counts grow as |X|^K)")
    return k


def cmd_homology(args) -> int:
    K = _check_maxdeg(args.maxdeg)
    # H_K needs d_{K+1}: without it degree K would report the cycle group
    top = K + 1
    if args.variant == "bar":
        if not args.monoid:
            raise InputError("--bar needs --monoid <file>")
        g = FiniteMonoid.from_json(_load_json(args.monoid))
        m = hochschild.trivial_monoid_bimodule(g, _trivial_rank(args.coeff))
        cx = hochschild.normalized_bar_complex(g, m, top)
        name = f"bar:{args.monoid}"
    else:
        bs, fact = load_braiding(args.braiding)
        m = load_coefficients(args.coeff, bs)
        if args.variant == "full":
            cx = braided_chain_complex(bs, m, top)
        elif args.variant == "critical":
            cx = critical_complex(bs, m, top, pseudo_unit=bs.pseudo_unit)
        else:  # double
            if fact is None:
                raise InputError("--double needs a factorization:<file> or assoc:<file> braiding")
            _, cx = hochschild.factorizable_double_complex(fact, m, top)
        name = cx.name
    rep = verify_complex(cx)
    if not rep.holds:
        raise BraidedSetError(f"assembled complex fails d.d=0 at {rep.witness}")
    payload = {
        "complex": name,
        "variant": args.variant,
        "maxdeg": K,
        "ranks": cx.ranks[: K + 1],
        "homology": _homology_payload(cx, K),
    }
    _emit(payload, args)
    return 0


def _trivial_rank(spec: str) -> int:
    if not spec.startswith("trivial"):
        raise InputError("bar homology supports trivial:r coefficients only")
    _, _, r = spec.partition(":")
    return int(r) if r else 1


def cmd_compare(args) -> int:
    bs, _ = load_braiding(args.braiding)
    m = load_coefficients(args.coeff, bs)
    report = hochschild.compare_homology(bs, m, _check_maxdeg(args.maxdeg), bound=args.bound)
    payload = report.to_dict()
    payload["braiding"] = bs.name
    _emit(payload, args)
    return 0 if report.ok else 1


def cmd_products(args) -> int:
    bs, _ = load_braiding(args.braiding)
    if args.op == "qs":
        if not args.word:
            raise InputError("--op qs needs --word i,j,...")
        w = tuple(int(t) for t in args.word.split(",") if t != "")
        comb = quantum_symmetrizer(bs, w)
        payload = {"op": "qs", "word": list(w), "result": {",".join(map(str, t)): c for t, c in sorted(comb.items())}}
        _emit(payload, args)
        return 0
    if not args.cochain or not args.cochain2:
        raise InputError(f"--op {args.op} needs --cochain and --cochain2")
    f = Cochain.from_json(_load_json(args.cochain))
    g = Cochain.from_json(_load_json(args.cochain2))
    if args.op == "cup":
        _emit(cup_product(bs, f, g).to_json(), args)
        return 0
    if args.op == "cupsplit":
        left, right = cup_left_right(bs, f, g)
        _emit({"left": left.to_json(), "right": right.to_json()}, args)
        return 0
    if args.op == "circle":
        _emit(circle_product(bs, f, g).to_json(), args)
        return 0
    if args.op == "homotopy":
        rep = check_homotopy_identity(bs, f, g)
        payload = rep.to_dict()
        payload["op"] = "homotopy"
        _emit(payload, args)
        return 0 if rep.holds else 1
    raise InputError(f"unknown products op {args.op!r}")


def cmd_export(args) -> int:
    bs, fact = load_braiding(args.braiding)
    if args.what == "braiding":
        _emit(bs.to_json(), args)
        return 0
    m = load_coefficients(args.coeff, bs)
    K = _check_maxdeg(args.maxdeg)
    if args.what == "critical":
        cx = critical_complex(bs, m, K, pseudo_unit=bs.pseudo_unit)
    elif args.what == "full":
        cx = braided_chain_complex(bs, m, K)
    else:
        raise InputError(f"unknown export target {args.what!r}")
    _emit(cx.to_json(), args)
    return 0


def _common(sub):
    sub.add_argument("--out", help="output file (atomic write); default stdout")
    sub.add_argument("--format", choices=["json", "text"], default="json")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="braidhom", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = p.add_subparsers(dest="command", required=True)

    v = subs.add_parser("verify", help="axiom checks for a braided set")
    v.add_argument("--braiding", required=True)
    v.add_argument("--ybe", action="store_true")
    v.add_argument("--idempotent", action="store_true")
    v.add_argument("--pseudo-unit", dest="pseudo_unit", action="store_true")
    v.add_argument("--semigroup", action="store_true", help="braided-monoid laws on normal words")
    v.add_argument("--bimodule", help="bimodule JSON to verify over this braiding")
    v.add_argument("--maxlen", type=int, default=3)
    v.add_argument("--bound", type=int, default=4, help="pseudo-unit condition-2 bound")
    _common(v)
    v.set_defaults(func=cmd_verify)

    c = subs.add_parser("classify", help="idempotent braidings up to isomorphism")
    c.add_argument("--size", type=int, required=True)
    _common(c)
    c.set_defaults(func=cmd_classify)

    h = subs.add_parser("homology", help="homology of a braided/bar/double complex")
    h.add_argument("--braiding")
    h.add_argument("--monoid", help="monoid JSON (bar variant)")
    group = h.add_mutually_exclusive_group()
    group.add_argument("--full", dest="variant", action="store_const", const="full")
    group.add_argument("--critical", dest="variant", action="store_const", const="critical")
    group.add_argument("--bar", dest="variant", action="store_const", const="bar")
    group.add_argument("--double", dest="variant", action="store_const", const="double")
    h.set_defaults(variant="critical")
    h.add_argument("--coeff", default="trivial:1")
    h.add_argument("--maxdeg", type=int, default=4)
    _common(h)
    h.set_defaults(func=cmd_homology)

    cp = subs.add_parser("compare", help="critical vs bar homology via the quantum symmetrizer")
    cp.add_argument("--braiding", required=True)
    cp.add_argument("--coeff", default="trivial:1")
    cp.add_argument("--maxdeg", type=int, default=4)
    cp.add_argument("--bound", type=int, default=256, help="reduced-monoid size bound")
    _common(cp)
    cp.set_defaults(func=cmd_compare)

    pr = subs.add_parser("products", help="cup/circle/symmetrizer operations on cochains")
    pr.add_argument("--op", required=True, choices=["cup", "cupsplit", "circle", "qs", "homotopy"])
    pr.add_argument("--braiding", required=True)
    pr.add_argument("--cochain")
    pr.add_argument("--cochain2")
    pr.add_argument("--word", help="comma-separated letters (op qs)")
    _common(pr)
    pr.set_defaults(func=cmd_products)

    e = subs.add_parser("export", help="write braided-set or complex JSON")
    e.add_argument("--braiding", required=True)
    e.add_argument("--what", default="braiding", choices=["braiding", "critical", "full"])
    e.add_argument("--coeff", default="trivial:1")
    e.add_argument("--maxdeg", type=int, default=4)
    _common(e)
    e.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "homology" and args.variant != "bar" and not args.braiding:
        print("error: --braiding is required for this variant", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(
            f"error: {exc}\nhint: infinite structure monoids (free, symmetric, ...) have no "
            "finite bar complex; check the critical homology against closed forms instead "
            "(homology --critical)",
            file=sys.stderr,
        )
        return 3
    except BraidedSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
