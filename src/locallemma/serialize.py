"""JSON formats for graphs, CSPs, labelings, weights and reports.

Rationals serialize as "num/den" strings, canonical forms as hex, labels
as integers or nested {"t": ...}/{"s": ...} objects.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Optional

from .csp import Constraint, Csp, Fixed
from .engine import WeightedGroundSet
from .graphs import StructuredGraph, build_graph
from .labels import label_from_json, label_to_json


def fraction_str(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def fraction_from_str(text: str) -> Fraction:
    return Fraction(text)


def graph_to_json(graph: StructuredGraph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": sorted([u, v] for (u, v) in graph.edges),
        "structure": [
            {"tuple": list(tup), "label": label_to_json(label)}
            for tup, label in sorted(graph.structure.items())
        ],
        "tuple_bound": graph.tuple_bound,
    }


def graph_from_json(data: dict) -> StructuredGraph:
    _known_keys(data, ("vertices",), ("edges", "structure", "tuple_bound"))
    vertices = _int_list(data["vertices"], "vertices")
    edges = [tuple(_int_list(e, f"edges[{i}]"))
             for i, e in enumerate(_pairs(data.get("edges", []), "edges"))]
    # a list of pairs, not a dict, so build_graph refuses a repeated tuple
    structure = []
    for i, entry in enumerate(_strict_container(data.get("structure", []), list, "structure")):
        entry = _known_keys(entry, ("tuple", "label"), where=f"structure[{i}]")
        structure.append((tuple(_int_list(entry["tuple"], f"structure[{i}].tuple")),
                          _label(entry["label"], f"structure[{i}].label")))
    bound = data.get("tuple_bound")
    return build_graph(vertices, edges, structure,
                       None if bound is None else _strict_int(bound, "tuple_bound"))


PREDICATES = {}   # name -> (factory(params, m), {int param: (m -> (lo, hi), default)})


def register_predicate(name, **params):
    def wrap(factory):
        PREDICATES[name] = factory, params
        return factory
    return wrap


@register_predicate("all_equal")
def _all_equal(params, m):
    return lambda values: len(set(values)) <= 1


@register_predicate("constant", value=(lambda m: (1, m), None))
def _constant(params, m):
    target = params["value"]
    return lambda values: all(v == target for v in values)


@register_predicate("parity", residue=(lambda m: (0, 1), 0))
def _parity(params, m):
    residue = params["residue"]
    return lambda values: sum(v - 1 for v in values) % 2 == residue


def csp_to_json(csp: Csp) -> dict:
    constraints = []
    for c in csp.constraints:
        if c.members is not None:
            constraints.append({
                "domain": list(c.domain),
                "forbidden": sorted(list(member) for member in c.members),
            })
        else:
            # a restricted or binary-encoded body is a Fixed over another predicate
            if not c.tag.startswith("predicate:") or isinstance(c.predicate, Fixed):
                raise ValueError("only unrestricted registered predicate constraints serialize")
            name, params = json.loads(c.tag[len("predicate:"):])
            constraints.append({"domain": list(c.domain),
                                "predicate": {"name": name, "params": params}})
    return {"ground": list(csp.ground), "m": csp.m, "constraints": constraints}


def _strict_int(value, where: str, low: Optional[int] = None) -> int:
    """`value` if it is an int and not a bool (and at least `low`, when
    given); a float, a numeric string or `true` is refused, with the field
    named, rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected int, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{where}: expected int >= {low}, got {value!r}")
    return value


def _strict_fraction(value, where: str) -> Fraction:
    """`value` read by `fraction_from_str`; a non-string (read as ""), or
    text such as "1/0" or "half", is refused with the field named."""
    try:
        return fraction_from_str(value if isinstance(value, str) else "")
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{where}: expected a rational string, got {value!r}") from None


def _strict_container(value, kind: type, where: str):
    """`value` if it is a `kind` (list or dict); anything else is refused,
    with the field named, rather than read as another container."""
    if not isinstance(value, kind):
        raise ValueError(f"{where}: expected {'a list' if kind is list else 'an object'}, "
                         f"got {value!r}")
    return value


def _int_list(value, where: str) -> list:
    """`value` as a list of `_strict_int`s, each named by its index."""
    return [_strict_int(v, f"{where}[{i}]")
            for i, v in enumerate(_strict_container(value, list, where))]


def _id_list(value, where: str, ground=None) -> list:
    """`value` as an `_int_list` of distinct ids, each in `ground` when
    given; a repeated or unknown id is refused with the field named."""
    ids, seen = _int_list(value, where), set()
    for x in ids:
        if x in seen:
            raise ValueError(f"{where}: repeated id {x}")
        if ground is not None and x not in ground:
            raise ValueError(f"{where}: id {x} is not in the ground set")
        seen.add(x)
    return ids


def _label(value, where: str):
    """`label_from_json(value)`, refused with the field named."""
    try:
        return label_from_json(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _pairs(value, where: str) -> list:
    """`value` if it is a list of two-item lists, refused by field otherwise."""
    for i, pair in enumerate(_strict_container(value, list, where)):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{where}[{i}]: expected a pair, got {pair!r}")
    return value


def _known_keys(data, required, optional=(), where: str = "") -> dict:
    """`data` if it is an object with every `required` key and no key the
    format does not define; else refused, naming the first unknown key in
    sorted order, or else the first missing one, under the field `where`."""
    at = f"{where}." if where else ""
    keys = set(_strict_container(data, dict, where or "input"))
    unknown = sorted(keys.difference(required, optional))
    if unknown:
        raise ValueError(f"{at}{unknown[0]}: unknown key")
    missing = [key for key in required if key not in keys]
    if missing:
        raise ValueError(f"{at}{missing[0]}: missing")
    return data


def csp_from_json(data: dict) -> Csp:
    _known_keys(data, ("ground", "m", "constraints"))
    constraints = []
    ground = tuple(_id_list(data["ground"], "ground"))
    m = _strict_int(data["m"], "m", low=1)
    ground_set = set(ground)
    for i, entry in enumerate(_strict_container(data["constraints"], list, "constraints")):
        at = f"constraints[{i}]"
        _known_keys(entry, ("domain",), ("forbidden", "predicate"), where=at)
        domain = _id_list(entry["domain"], f"{at}.domain", ground_set)
        if "forbidden" in entry and "predicate" in entry:
            raise ValueError(f"{at}: has both 'forbidden' and 'predicate'")
        if "forbidden" in entry:
            members = []
            for k, member in enumerate(_strict_container(entry["forbidden"], list,
                                                         f"{at}.forbidden")):
                where = f"{at}.forbidden[{k}]"
                member = _int_list(member, where)
                if len(member) != len(domain):
                    raise ValueError(f"{where}: expected {len(domain)} values, got {len(member)}")
                bad = [v for v in member if not 1 <= v <= m]
                if bad:
                    raise ValueError(f"{where}: value {bad[0]} out of range [1..{m}]")
                members.append(tuple(member))
            constraints.append(Constraint.explicit(domain, m, members))
        elif "predicate" in entry:
            predicate = _known_keys(entry["predicate"], ("name",), ("params",), f"{at}.predicate")
            name = predicate["name"]
            params = _strict_container(predicate.get("params", {}), dict,
                                       f"{at}.predicate.params")
            if not isinstance(name, str) or name not in PREDICATES:
                raise ValueError(f"{at}.predicate.name: unknown predicate {name!r}")
            factory, spec = PREDICATES[name]
            unknown = sorted(set(params) - set(spec))
            if unknown:
                raise ValueError(f"{at}.predicate.params.{unknown[0]}: unknown parameter")
            checked = {}   # the tag keeps params as written, with no default filled in
            for key, (bounds, default) in spec.items():
                where, (lo, hi) = f"{at}.predicate.params.{key}", bounds(m)
                if key not in params and default is None:
                    raise ValueError(f"{where}: missing")
                checked[key] = _strict_int(params.get(key, default), where)
                if not lo <= checked[key] <= hi:
                    raise ValueError(f"{where}: expected int in [{lo}..{hi}], "
                                     f"got {checked[key]!r}")
            constraints.append(Constraint.from_predicate(
                domain, m, factory(checked, m),
                tag="predicate:" + json.dumps([name, params], sort_keys=True)))
        else:
            raise ValueError(f"{at}: needs 'forbidden' or 'predicate'")
    return Csp(ground, m, tuple(constraints))


def labeling_to_json(values: Dict[int, int]) -> dict:
    return {"values": sorted([int(v), int(c)] for v, c in values.items())}


def labeling_from_json(data: dict) -> Dict[int, int]:
    _known_keys(data, ("values",))
    values = {}
    for i, (v, c) in enumerate(_pairs(data["values"], "values")):
        v = _strict_int(v, f"values[{i}][0]")
        if v in values:
            raise ValueError(f"values[{i}][0]: duplicate id {v}")
        values[v] = _strict_int(c, f"values[{i}][1]")
    return values


def weights_to_json(wts: WeightedGroundSet) -> dict:
    return {"weights": sorted([int(x), fraction_str(w)] for x, w in wts.weights.items())}


def weights_from_json(data: dict) -> WeightedGroundSet:
    _known_keys(data, ("weights",))
    weights = {}
    for i, (x, w) in enumerate(_pairs(data["weights"], "weights")):
        x = _strict_int(x, f"weights[{i}][0]")
        if x in weights:
            raise ValueError(f"weights[{i}][0]: duplicate id {x}")
        weights[x] = _strict_fraction(w, f"weights[{i}][1]")
    return WeightedGroundSet(weights)


def dump_json(data, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
