"""Design files: JSON (format_version 1) to and from DesignInstance.

A file holds q, v, the kind, K, the claimed lambda (or one per class), the
groups, and the blocks, either explicit (canonical bases with
multiplicities) or implicit (orbit labels with multiplicities).  Reading
checks every field and raises ValueError on anything malformed.
"""

from __future__ import annotations

from .atlas import OrbitLabel, check_block_dim
from .designs import (DesignInstance, ExplicitBlocks, GddSelection, ImplicitBlocks,
                      LabelWeight, _group_index, make_explicit)
from .fields import pack_coords
from .singer import HOrbit, singer_action
from .subspaces import Subspace, canonicalize

FORMAT_VERSION = 1


def subspace_from_lists(rows: list[list[int]], q: int, v: int,
                        strict: bool = True) -> Subspace:
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(type(c) is int for c in r) for r in rows):
        raise ValueError("a basis must be a list of integer coordinate lists")
    sub = canonicalize(rows, q, v)
    if strict:
        packed = tuple(pack_coords(r, q) for r in rows)
        if packed != sub.rows:
            raise ValueError("basis rows are not in canonical echelon form")
    return sub


def design_to_json_dict(design: DesignInstance) -> dict:
    out: dict = {
        "format_version": FORMAT_VERSION,
        "q": design.q,
        "v": design.v,
        "kind": design.kind,
        "K": list(design.K),
        "claimed_lambda": design.claimed_lambda,
    }
    if design.claimed_lambda_by_class:
        out["claimed_lambda_by_class"] = {
            k: v for k, v in design.claimed_lambda_by_class}
    if design.groups:
        out["groups"] = [g.basis_lists() for g in design.groups]
    blocks = design.blocks
    if isinstance(blocks, ExplicitBlocks):
        out["blocks"] = {"explicit": [
            {"basis": Subspace(design.q, design.v, rows).basis_lists(),
             "multiplicity": mult}
            for rows, mult in blocks.items]}
    else:
        action = singer_action(blocks.l, design.q)

        def label_dict(lw: LabelWeight) -> dict:
            rep = Subspace(design.q, blocks.l, lw.label.rep_rows)
            d: dict = {"rep": rep.basis_lists(),
                       "multiplicity": lw.multiplicity}
            if lw.label.kind == "mixed":
                d["r"] = lw.label.r
            else:
                d["dim"] = lw.label.dim
            d["u"] = action.orbit_containing(lw.label.rep_rows).u
            return d

        out["blocks"] = {"implicit": {
            "m": blocks.m, "l": blocks.l, "k": blocks.k,
            "labels": [label_dict(lw) for lw in blocks.labels],
            "line_labels": [label_dict(lw) for lw in blocks.line_labels],
            "omega_kk": blocks.omega_kk,
        }}
    return out


def design_from_json_dict(data: dict, strict: bool = True) -> DesignInstance:
    """Read a design file's JSON object.

    strict=False re-canonicalizes basis rows that are not in echelon form;
    every other check runs in both modes.
    """
    if not isinstance(data, dict):
        raise ValueError("a design file must hold a JSON object")
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {data.get('format_version')}")
    q = _int_field(data, "q", 2)
    v = _int_field(data, "v", 2)
    kind = data.get("kind")
    if kind not in ("gdd", "design", "pbd", "mixed"):
        raise ValueError(f"unknown design kind {kind!r}")
    K = data.get("K")
    if not isinstance(K, list) or not K or any(
            type(k) is not int or k < 1 for k in K):
        raise ValueError(f"K must be a non-empty list of integers >= 1, got {K!r}")
    K = tuple(sorted(K))
    lam = None if data.get("claimed_lambda") is None else \
        _int_field(data, "claimed_lambda", 0)
    by_class = data.get("claimed_lambda_by_class")
    if by_class is not None and not isinstance(by_class, dict):
        raise ValueError("claimed_lambda_by_class must be an object")
    by_class_t = tuple(sorted((cls, _int_field(by_class, cls, 0))
                              for cls in by_class)) if by_class else None
    groups = None
    if data.get("groups"):
        if not isinstance(data["groups"], list):
            raise ValueError("groups must be a list of bases")
        groups = tuple(subspace_from_lists(g, q, v, strict)
                       for g in data["groups"])
    raw = data.get("blocks")
    if not isinstance(raw, dict) or not (
            "explicit" in raw or isinstance(raw.get("implicit"), dict)):
        raise ValueError("blocks must be an object holding explicit or implicit blocks")
    if "explicit" in raw:
        items = []
        for entry in _object_list(raw["explicit"], "explicit blocks"):
            sub = subspace_from_lists(entry.get("basis"), q, v, strict)
            _check_block_in_K("explicit", sub.dim, K)
            items.append((sub.rows, _int_field(entry, "multiplicity", 1)))
        blocks: ImplicitBlocks | ExplicitBlocks = make_explicit(iter(items))
    else:
        imp = raw["implicit"]
        m, l, k = (_int_field(imp, name, 1) for name in ("m", "l", "k"))
        if m * l != v:
            raise ValueError("implicit structure does not match the ambient space")
        check_block_dim(m, l, k, "implicit k")
        labels = []
        for entry in _object_list(imp.get("labels"), "labels"):
            r = _int_field(entry, "r", 1, k - 1)
            rep = _label_rep(entry, q, l, r + 1, strict)
            labels.append(LabelWeight(OrbitLabel(k, k - 1, r, rep),
                                      _int_field(entry, "multiplicity", 1)))
        line_labels = []
        for entry in _object_list(imp.get("line_labels", []), "line_labels"):
            dim = _int_field(entry, "dim", 1, l)
            _check_block_in_K("implicit", dim, K)
            rep = _label_rep(entry, q, l, dim, strict)
            line_labels.append(LabelWeight(OrbitLabel(dim, 1, None, rep),
                                           _int_field(entry, "multiplicity", 1)))
        omega_kk = imp.get("omega_kk", False)
        if type(omega_kk) is not bool:
            raise ValueError(f"omega_kk must be true or false, got {omega_kk!r}")
        GddSelection.of(omega_kk=omega_kk).validate(m, l, k, q)
        if labels or omega_kk:
            _check_block_in_K("implicit", k, K)
        blocks = ImplicitBlocks(m, l, k, tuple(labels), tuple(line_labels),
                                omega_kk)
    if kind == "gdd" and groups:
        _group_index(q, v, groups)
    return DesignInstance(q=q, v=v, kind=kind, K=K, claimed_lambda=lam,
                          blocks=blocks, groups=groups,
                          claimed_lambda_by_class=by_class_t)


def _check_block_in_K(kind: str, dim: int, K: tuple[int, ...]) -> None:
    if dim not in K:
        raise ValueError(f"{kind} block of dimension {dim} is not in K={list(K)}")


def _object_list(value, what: str) -> list[dict]:
    if not isinstance(value, list) or not all(isinstance(e, dict) for e in value):
        raise ValueError(f"{what} must be a list of objects")
    return value


def _int_field(entry: dict, name: str, lo: int, hi: int | None = None) -> int:
    """entry[name] as an integer in lo..hi (no upper bound for hi=None)."""
    x = entry.get(name)
    if type(x) is not int or x < lo or (hi is not None and x > hi):
        bound = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
        raise ValueError(f"{name} must be an integer {bound}, got {x!r}")
    return x


def _label_rep(entry: dict, q: int, l: int, dim: int,
               strict: bool) -> tuple[int, ...]:
    """Canonical rows of a label's representative, which must span dim.

    The rows must be the canonical member of their Singer orbit, and u its
    stabilizer exponent; strict only governs the echelon form of the rows.
    """
    rep = subspace_from_lists(entry.get("rep"), q, l, strict)
    if rep.dim != dim:
        raise ValueError(f"label representative has dimension {rep.dim}, "
                         f"expected {dim}")
    orbit = _singer_orbit(q, l, rep.rows)
    if orbit.rep.rows != rep.rows:
        raise ValueError("label representative is not orbit-canonical")
    if type(entry.get("u")) is not int or entry["u"] != orbit.u:
        raise ValueError(f"label u must be {orbit.u}, the Singer stabilizer "
                         f"exponent of its representative, got {entry.get('u')!r}")
    return rep.rows


def _singer_orbit(q: int, l: int, rows: tuple[int, ...]) -> HOrbit:
    try:
        return singer_action(l, q).orbit_containing(rows)
    except KeyError:
        raise ValueError("representative rows do not index a Singer orbit") from None
