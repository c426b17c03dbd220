"""JSON-facing builders and parsers for the command line and for re-verification.

All payloads are deterministic: orderings come from the deterministic
orderings of the underlying objects, and serialization sorts keys.  Table
values are only printed; quotient genera come from the Eichler values.
"""

from __future__ import annotations

from .chartable import CharacterTable
from .criteria import (
    CMVerdict,
    IrreducibleRow,
    IsogenyRelation,
    RelationReport,
    StatementAResult,
    StatementBResult,
    _eichler_values,
    _invariant_genus,
)
from .cyclotomic import value_string
from .errors import GroupTooLarge, InvalidPermutation
from .group import FiniteGroup, Subgroup
from .perm import Permutation
from .surface import QuasiplatonicSurface, quotient_surface


def _is_image_arrays(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(images, list) and all(type(i) is int for i in images) for images in value)


def group_from_json(data: dict, max_order: int) -> FiniteGroup:
    """The group a file describes.  Its elements hold |G| * degree image entries,
    bounded by the max_order^2 entries the order bound allows the Cayley table."""
    if (not isinstance(data, dict) or type(data.get("degree")) is not int
            or not _is_image_arrays(data.get("generators"))):
        raise InvalidPermutation('group file needs {"degree": int, "generators": [[int,...],...]}')
    degree = data["degree"]
    limit = min(max_order, max_order * max_order // max(degree, 1))
    if limit < 1:
        raise GroupTooLarge(f"degree {degree} exceeds the image bound {max_order}^2")
    gens = [Permutation(images) for images in data["generators"]]
    for g in gens:
        if g.degree != degree:
            raise InvalidPermutation("generator degree does not match the declared degree")
    try:
        return FiniteGroup.from_generators(degree, gens, max_order=limit)
    except GroupTooLarge:
        if limit == max_order:
            raise
        raise GroupTooLarge(f"order bound {limit} for degree {degree} exceeded "
                            f"(image bound {max_order}^2)") from None


def subgroup_from_generators(G: FiniteGroup, gen_images) -> Subgroup:
    gens = [Permutation(images) for images in gen_images]
    return G.subgroup_generated(gens)


def relation_from_json(G: FiniteGroup, data: dict) -> IsogenyRelation:
    """A relation from {"n": int, "factors": [{"subgroup_gens": [[int,...],...],
    "multiplicity": int}, ...]}; a malformed field raises ValueError naming it."""
    if not isinstance(data, dict) or type(data.get("n")) is not int:
        raise ValueError('relation needs an integer "n"')
    if not isinstance(data.get("factors"), list):
        raise ValueError('relation "factors" must be a list')
    factors = []
    for f in data["factors"]:
        if not isinstance(f, dict) or not _is_image_arrays(f.get("subgroup_gens")):
            raise ValueError('each relation factor needs "subgroup_gens": [[int,...],...]')
        if type(f.get("multiplicity")) is not int:
            raise ValueError('each relation factor needs an integer "multiplicity"')
        factors.append((subgroup_from_generators(G, f["subgroup_gens"]), f["multiplicity"]))
    return IsogenyRelation(data["n"], tuple(factors))


def signature_json(sig) -> dict:
    return {"orbit_genus": sig.orbit_genus, "periods": list(sig.periods)}


def _evidence_json(evidence) -> dict:
    """A factor certificate's evidence: the fields of statement A or B, with
    `is_normal` under "normal" and a signature as its dict, or a plain dict."""
    if isinstance(evidence, (StatementAResult, StatementBResult)):
        fields = {name: getattr(evidence, name) for name in evidence._fields}
        if fields.get("quotient_signature") is not None:
            fields["quotient_signature"] = signature_json(fields["quotient_signature"])
        if "is_normal" in fields:
            fields["normal"] = fields.pop("is_normal")
        return fields
    return evidence


def group_json(G: FiniteGroup) -> dict:
    return {"order": G.order, "degree": G.degree,
            "generators": [list(g.images) for g in G.generators]}


def character_table_json(T: CharacterTable) -> dict:
    strings = {s: value_string(v) for s, v in T.value_vectors().items()}
    classes = [{"representative": cls.representative.cycle_string(),
                "size": cls.size, "order": cls.order}
               for cls in T.group.conjugacy_classes()]
    return {
        "conductor": T.conductor,
        "classes": classes,
        "degrees": list(T.degrees()),
        "irreducibles": [list(map(strings.__getitem__, spectra)) for spectra in T.spectra],
    }


def quotient_table_json(X: QuasiplatonicSurface) -> list:
    """Per-subgroup quotient rows, genus by both methods: the branch data's
    cycle counts, read off H's class weights, and genus_by_character =
    dim H^0(Omega)^H = (1/|H|) sum over h in H of chi_a(h), with chi_a from
    the Eichler trace formula."""
    scale, values = _eichler_values(X)
    rows = []
    for H in X.group.all_subgroups():
        q = quotient_surface(X, H)
        row = {
            "subgroup_gens": [list(g.images) for g in H.generators()],
            "subgroup_cycles": [g.cycle_string() for g in H.generators()],
            "order": H.order,
            "index": H.index,
            "genus": q.genus,
            "branch_data": [[period, list(lengths)] for period, lengths in q.branch_data],
            "genus_by_character": _invariant_genus(scale, values, H),
        }
        rows.append(row)
    return rows


def relation_json(X: QuasiplatonicSurface, relation: IsogenyRelation,
                  certificates=()) -> dict:
    cert_by_subgroup = {c.subgroup: c for c in certificates}
    factors = []
    for H, mult in relation.factors:
        entry = {
            "subgroup_gens": [list(g.images) for g in H.generators()],
            "subgroup_cycles": [g.cycle_string() for g in H.generators()],
            "multiplicity": mult,
            "genus": quotient_surface(X, H).genus,
        }
        cert = cert_by_subgroup.get(H)
        if cert is not None:
            entry["route"] = cert.route
            entry["evidence"] = _evidence_json(cert.evidence)
        factors.append(entry)
    return {"n": relation.n, "factors": factors}


def verdict_json(X: QuasiplatonicSurface, verdict: CMVerdict) -> dict:
    payload = {
        "status": verdict.status,
        "streit_value": verdict.streit_value,
        "relation": None,
        "irreducible_report": None,
    }
    if verdict.relation is not None:
        payload["relation"] = relation_json(X, verdict.relation, verdict.certificates)
    if verdict.relation_report is not None:
        payload["irreducible_report"] = [_row_json(r) for r in verdict.relation_report.rows]
    if verdict.search_log:
        payload["search_log"] = list(verdict.search_log)
    return payload


def _row_json(row: IrreducibleRow) -> dict:
    return {
        "irreducible": row.index,
        "degree": row.degree,
        "h1_multiplicity": row.h1_multiplicity,
        "lhs": row.lhs,
        "rhs": row.rhs,
        "factor_dimensions": list(row.factor_dimensions),
        "ok": row.ok,
    }


def relation_report_json(report: RelationReport) -> dict:
    return {
        "holds": report.holds,
        "rows": [_row_json(r) for r in report.rows],
        "genus_identity": {"lhs": report.genus_lhs, "rhs": report.genus_rhs},
    }
