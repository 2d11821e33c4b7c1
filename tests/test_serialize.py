from fractions import Fraction
from itertools import product

import pytest

from locallemma.binary import binary_reduce
from locallemma.csp import probability, restrict_csp, stats
from locallemma.engine import WeightedGroundSet
from locallemma.generators import generate
from locallemma.labels import label_from_json, label_key, label_to_json
from reference import random_small_csp
from locallemma.serialize import (
    csp_from_json,
    csp_to_json,
    fraction_from_str,
    fraction_str,
    graph_from_json,
    graph_to_json,
    labeling_from_json,
    labeling_to_json,
    weights_from_json,
    weights_to_json,
)


def test_label_round_trip():
    values = [0, 7, (1, 2), frozenset([1, (2, 3)]), ((0,), frozenset())]
    for v in values:
        assert label_from_json(label_to_json(v)) == v


def test_label_key_orders_ints_numerically():
    assert label_key(2) < label_key(10) < label_key(100)


def test_graph_round_trip_with_structure():
    g = generate("directed_cycle", {"n": 5})
    data = graph_to_json(g)
    assert data["tuple_bound"] == 2
    g2 = graph_from_json(data)
    assert g2 == g


def test_fraction_strings():
    f = Fraction(22, 7)
    assert fraction_from_str(fraction_str(f)) == f


def test_csp_round_trip_explicit():
    for seed in range(20):
        csp = random_small_csp(seed)
        data = csp_to_json(csp)
        back = csp_from_json(data)
        assert back.ground == csp.ground and back.m == csp.m
        assert stats(back) == stats(csp)


def test_csp_predicate_from_json():
    data = {
        "ground": [0, 1, 2],
        "m": 3,
        "constraints": [
            {"domain": [0, 1], "predicate": {"name": "all_equal", "params": {}}},
            {"domain": [2], "predicate": {"name": "constant", "params": {"value": 2}}},
        ],
    }
    csp = csp_from_json(data)
    assert probability(csp.constraints[0]) == Fraction(1, 3)
    assert probability(csp.constraints[1]) == Fraction(1, 3)
    again = csp_from_json(csp_to_json(csp))
    assert stats(again) == stats(csp)


def test_csp_to_json_round_trips_a_body_or_refuses_it():
    data = {"ground": [0, 1, 2], "m": 3,
            "constraints": [{"domain": [0, 1, 2], "predicate": {"name": "all_equal"}}]}
    csp = csp_from_json(data)
    again = csp_from_json(csp_to_json(csp))
    assert [again.constraints[0].contains(v) for v in product((1, 2, 3), repeat=3)] \
        == [csp.constraints[0].contains(v) for v in product((1, 2, 3), repeat=3)]
    # all_equal with element 0 fixed to 1 forbids (1, 1) only, not all_equal on (1, 2)
    restricted = restrict_csp(csp, {0: 1})
    assert probability(restricted.constraints[0]) == Fraction(1, 9)
    with pytest.raises(ValueError, match="unrestricted registered predicate"):
        csp_to_json(restricted)
    # the binary view keeps the predicate's tag but not its body
    encoded, _ = binary_reduce(csp, Fraction(1, 2))
    assert encoded.constraints[0].tag == csp.constraints[0].tag
    with pytest.raises(ValueError, match="unrestricted registered predicate"):
        csp_to_json(encoded)


def test_labeling_round_trip():
    values = {3: 1, 0: 2, 7: 5}
    assert labeling_from_json(labeling_to_json(values)) == values


def test_weights_round_trip():
    wts = WeightedGroundSet({0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)})
    assert weights_from_json(weights_to_json(wts)).weights == wts.weights


@pytest.mark.parametrize("reader, data", [
    (graph_from_json, graph_to_json(generate("directed_cycle", {"n": 3}))),
    (csp_from_json, csp_to_json(random_small_csp(1))),
    (labeling_from_json, labeling_to_json({0: 1, 2: 3})),
    (weights_from_json,
     weights_to_json(WeightedGroundSet({0: Fraction(1, 2), 1: Fraction(1, 2)}))),
], ids=["graph", "csp", "labeling", "weights"])
def test_readers_refuse_an_unknown_top_level_key(reader, data):
    reader(data)  # every key a writer writes is read
    with pytest.raises(ValueError, match=r"^extra: unknown key$"):
        reader({**data, "zone": 1, "extra": 0})


# inputs that int() used to coerce: floats, numeric strings, bools
COERCED = [
    (csp_from_json, {"ground": [0, 1], "m": 2.9, "constraints": []},
     "m: expected int, got 2.9"),
    (csp_from_json, {"ground": [1, 2], "m": 3,
                     "constraints": [{"domain": [1.7, 2.2], "forbidden": []}]},
     "constraints[0].domain[0]: expected int, got 1.7"),
    (csp_from_json, {"ground": [1, 2], "m": 3,
                     "constraints": [{"domain": [1, 2.2], "forbidden": []}]},
     "constraints[0].domain[1]: expected int, got 2.2"),
    (csp_from_json, {"ground": [0, 1], "m": 2,
                     "constraints": [{"domain": [0, 1], "forbidden": [[1, True]]}]},
     "constraints[0].forbidden[0][1]: expected int, got True"),
    (labeling_from_json, {"values": [["3", 2.5], [1, True]]},
     "values[0][0]: expected int, got '3'"),
    (labeling_from_json, {"values": [[3, 2.5]]}, "values[0][1]: expected int, got 2.5"),
    (labeling_from_json, {"values": [[0, 1], [1, True]]},
     "values[1][1]: expected int, got True"),
    (graph_from_json, {"vertices": [0, 1, 2.0]}, "vertices[2]: expected int, got 2.0"),
    (graph_from_json, {"vertices": [0, 1, "2"]}, "vertices[2]: expected int, got '2'"),
    (graph_from_json, {"vertices": [0, 1, 2], "edges": [[0, 1], [2, True]]},
     "edges[1][1]: expected int, got True"),
    (graph_from_json, {"vertices": [0, 1], "structure": [{"tuple": [0, 1.0], "label": 1}]},
     "structure[0].tuple[1]: expected int, got 1.0"),
    (graph_from_json, {"vertices": [0, 1], "tuple_bound": 2.5},
     "tuple_bound: expected int, got 2.5"),
    (weights_from_json, {"weights": [["1", "1/2"], [2.7, "1/2"]]},
     "weights[0][0]: expected int, got '1'"),
    (weights_from_json, {"weights": [[1, "1/2"], [2.7, "1/2"]]},
     "weights[1][0]: expected int, got 2.7"),
    (weights_from_json, {"weights": [[True, "1/2"], [2, "1/2"]]},
     "weights[0][0]: expected int, got True"),
    (weights_from_json, {"weights": [[1, 0.5], [2, "1/2"]]},
     "weights[0][1]: expected a rational string, got 0.5"),
    (csp_from_json, {"ground": [0, 1.0], "m": 2, "constraints": []},
     "ground[1]: expected int, got 1.0"),
    (csp_from_json, {"ground": ["0", 1], "m": 2, "constraints": []},
     "ground[0]: expected int, got '0'"),
    (csp_from_json, {"ground": [0, True], "m": 2, "constraints": []},
     "ground[1]: expected int, got True"),
    (csp_from_json, {"ground": [0], "m": 2, "constraints": [
        {"domain": [0], "predicate": {"name": "constant", "params": {"value": 1.9}}}]},
     "constraints[0].predicate.params.value: expected int, got 1.9"),
    (csp_from_json, {"ground": [0, 1], "m": 2, "constraints": [
        {"domain": [0, 1], "predicate": {"name": "parity", "params": {"residue": True}}}]},
     "constraints[0].predicate.params.residue: expected int, got True"),
    (csp_from_json, {"ground": [0, 1], "m": 2, "constraints": [
        {"domain": [0], "forbidden": []},
        {"domain": [0, 1], "predicate": {"name": "parity", "params": {"residue": "1"}}}]},
     "constraints[1].predicate.params.residue: expected int, got '1'"),
    # the predicate used to be dropped silently
    (csp_from_json, {"ground": [0, 1], "m": 2, "constraints": [
        {"domain": [0, 1], "forbidden": [[1, 1]], "predicate": {"name": "all_equal"}}]},
     "constraints[0]: has both 'forbidden' and 'predicate'"),
]


# registered-predicate params outside their meaning used to read as an
# empty body (probability 0); a missing value was a bare KeyError
OUT_OF_RANGE = [
    ({"name": "parity", "params": {"residue": 2}},
     "constraints[0].predicate.params.residue: expected int in [0..1], got 2"),
    ({"name": "parity", "params": {"residue": -1}},
     "constraints[0].predicate.params.residue: expected int in [0..1], got -1"),
    ({"name": "constant", "params": {"value": 0}},
     "constraints[0].predicate.params.value: expected int in [1..3], got 0"),
    ({"name": "constant", "params": {"value": 7}},
     "constraints[0].predicate.params.value: expected int in [1..3], got 7"),
    ({"name": "constant", "params": {}}, "constraints[0].predicate.params.value: missing"),
    ({"name": "constant"}, "constraints[0].predicate.params.value: missing"),
    ({"name": "parity", "params": {"residu": 1}},
     "constraints[0].predicate.params.residu: unknown parameter"),
    ({"name": "all_equal", "params": {"value": 1}},
     "constraints[0].predicate.params.value: unknown parameter"),
]


@pytest.mark.parametrize("predicate,message", OUT_OF_RANGE)
def test_csp_from_json_refuses_out_of_range_predicate_params(predicate, message):
    data = {"ground": [0, 1], "m": 3,
            "constraints": [{"domain": [0, 1], "predicate": predicate}]}
    with pytest.raises(ValueError) as err:
        csp_from_json(data)
    assert str(err.value) == message


def test_csp_from_json_keeps_in_range_params_and_their_tags():
    # every value in range is read, and the tag keeps the params as written
    # (a default is not filled in), so reports and round trips are unchanged
    for name, key, values in (("parity", "residue", (0, 1)), ("constant", "value", (1, 2, 3))):
        for v in values:
            csp = csp_from_json({"ground": [0, 1], "m": 3, "constraints": [
                {"domain": [0, 1], "predicate": {"name": name, "params": {key: v}}}]})
            assert probability(csp.constraints[0]) > 0
            assert csp_to_json(csp)["constraints"][0]["predicate"]["params"] == {key: v}
    csp = csp_from_json({"ground": [0, 1], "m": 2, "constraints": [
        {"domain": [0, 1], "predicate": {"name": "parity"}}]})
    assert probability(csp.constraints[0]) == Fraction(1, 2)
    assert csp.constraints[0].tag == 'predicate:["parity", {}]'


@pytest.mark.parametrize("reader,data,message", COERCED)
def test_readers_refuse_non_ints(reader, data, message):
    with pytest.raises(ValueError) as err:
        reader(data)
    assert str(err.value) == message


# wrong containers used to read as something else (a list of params as no
# params) or to fail with a bare TypeError, and a zero denominator with a
# bare ZeroDivisionError
CONTAINERS = [
    (csp_from_json, {"ground": [0], "m": 2, "constraints": [
        {"domain": [0], "predicate": {"name": "all_equal", "params": []}}]},
     "constraints[0].predicate.params: expected an object, got []"),
    (csp_from_json, {"ground": [0], "m": 2, "constraints": [
        {"domain": [0], "predicate": {"name": "constant", "params": ["value"]}}]},
     "constraints[0].predicate.params: expected an object, got ['value']"),
    (csp_from_json, {"ground": [0], "m": 2, "constraints": 5},
     "constraints: expected a list, got 5"),
    (csp_from_json, {"ground": [0], "m": 2, "constraints": [[0]]},
     "constraints[0]: expected an object, got [0]"),
    (csp_from_json, {"ground": [0], "m": 2,
                     "constraints": [{"domain": [0], "predicate": "all_equal"}]},
     "constraints[0].predicate: expected an object, got 'all_equal'"),
    (weights_from_json, {"weights": [[0, "1/0"], [1, "1"]]},
     "weights[0][1]: expected a rational string, got '1/0'"),
    (weights_from_json, {"weights": [[0, "half"], [1, "1/2"]]},
     "weights[0][1]: expected a rational string, got 'half'"),
    (weights_from_json, {"weights": {"0": "1"}}, "weights: expected a list, got {'0': '1'}"),
    (csp_from_json, {"ground": 0, "m": 2, "constraints": []}, "ground: expected a list, got 0"),
    (csp_from_json, {"ground": [0], "m": 2, "constraints": [{"domain": [0], "forbidden": 1}]},
     "constraints[0].forbidden: expected a list, got 1"),
    (graph_from_json, {"vertices": [0], "structure": [[0, 1]]},
     "structure[0]: expected an object, got [0, 1]"),
    (labeling_from_json, [[0, 1]], "input: expected an object, got [[0, 1]]"),
    (csp_from_json, {"ground": [0], "m": 2,
                     "constraints": [{"domain": [0], "predicate": {"name": ["parity"]}}]},
     "constraints[0].predicate.name: unknown predicate ['parity']"),
    (csp_from_json, {"ground": [0], "m": 2,
                     "constraints": [{"domain": [0], "predicate": {"name": "paritty"}}]},
     "constraints[0].predicate.name: unknown predicate 'paritty'"),
    # a missing key used to be a bare KeyError, printed as its name only
    (csp_from_json, {"m": 2, "constraints": []}, "ground: missing"),
    (csp_from_json, {"ground": [0], "m": 2, "constraints": [{"forbidden": []}]},
     "constraints[0].domain: missing"),
    (csp_from_json, {"ground": [0], "m": 2,
                     "constraints": [{"domain": [0], "predicate": {"params": {}}}]},
     "constraints[0].predicate.name: missing"),
    (csp_from_json, {"ground": [0], "m": 2, "constraints": [{"domain": [0]}]},
     "constraints[0]: needs 'forbidden' or 'predicate'"),
    (graph_from_json, {"edges": []}, "vertices: missing"),
    (graph_from_json, {"vertices": [0], "structure": [{"tuple": [0]}]},
     "structure[0].label: missing"),
    (labeling_from_json, {}, "values: missing"),
    (weights_from_json, {}, "weights: missing"),
    # an unknown key inside an entry used to be ignored
    (csp_from_json, {"ground": [0], "m": 2,
                     "constraints": [{"domain": [0], "forbidden": [], "extra": 1}]},
     "constraints[0].extra: unknown key"),
    (csp_from_json, {"ground": [0], "m": 2, "constraints": [
        {"domain": [0], "predicate": {"name": "all_equal", "param": {}}}]},
     "constraints[0].predicate.param: unknown key"),
    (graph_from_json, {"vertices": [0], "structure": [{"tuple": [0], "label": 1, "lable": 2}]},
     "structure[0].lable: unknown key"),
    # a pair of the wrong length used to fail to unpack, or reach build_graph
    (graph_from_json, {"vertices": [0, 1], "edges": [[0]]}, "edges[0]: expected a pair, got [0]"),
    (graph_from_json, {"vertices": [0, 1, 2], "edges": [[0, 1, 2]]},
     "edges[0]: expected a pair, got [0, 1, 2]"),
    (labeling_from_json, {"values": [[0, 1], [1]]}, "values[1]: expected a pair, got [1]"),
    (weights_from_json, {"weights": [[0, "1", "0"]]},
     "weights[0]: expected a pair, got [0, '1', '0']"),
    # model-level refusals used to name no field ("member values out of
    # range [1..2]", "constraint domain outside ground set", ...)
    (csp_from_json, {"ground": [0], "m": 2, "constraints": [{"domain": [0], "forbidden": [[5]]}]},
     "constraints[0].forbidden[0]: value 5 out of range [1..2]"),
    (csp_from_json, {"ground": [0], "m": 2,
                     "constraints": [{"domain": [0], "forbidden": [[1], [1, 1]]}]},
     "constraints[0].forbidden[1]: expected 1 values, got 2"),
    (csp_from_json, {"ground": [0, 1], "m": 2,
                     "constraints": [{"domain": [0, 7], "forbidden": [[1, 1]]}]},
     "constraints[0].domain: id 7 is not in the ground set"),
    (csp_from_json, {"ground": [0, 1], "m": 2,
                     "constraints": [{"domain": [1, 1], "predicate": {"name": "all_equal"}}]},
     "constraints[0].domain: repeated id 1"),
    (csp_from_json, {"ground": [0, 3, 0], "m": 2, "constraints": []}, "ground: repeated id 0"),
    (csp_from_json, {"ground": [0], "m": 0, "constraints": []}, "m: expected int >= 1, got 0"),
    (graph_from_json, {"vertices": [0], "structure": [{"tuple": [0], "label": 2},
                                                      {"tuple": [], "label": 1.5}]},
     "structure[1].label: malformed label json: 1.5"),
    (graph_from_json, {"vertices": [0], "structure": [{"tuple": [0], "label": {"t": [-1]}}]},
     "structure[0].label: labels are nonnegative"),
]


@pytest.mark.parametrize("reader,data,message", CONTAINERS)
def test_readers_name_the_field_of_a_wrong_container(reader, data, message):
    with pytest.raises(ValueError) as err:
        reader(data)
    assert str(err.value) == message


# a repeated key used to keep its last value: label 2 on (0,), weight 1 on
# 1, value 2 on vertex 0
DUPLICATED = [
    (graph_from_json, {"vertices": [0, 1], "structure": [{"tuple": [0], "label": 1},
                                                         {"tuple": [0], "label": 2}]},
     "duplicate structure entry for tuple (0,)"),
    (weights_from_json, {"weights": [[1, "1/2"], [1, "1"], [2, "0"]]},
     "weights[1][0]: duplicate id 1"),
    (labeling_from_json, {"values": [[0, 1], [0, 2]]}, "values[1][0]: duplicate id 0"),
]


@pytest.mark.parametrize("reader,data,message", DUPLICATED)
def test_readers_refuse_duplicate_keys(reader, data, message):
    with pytest.raises(ValueError) as err:
        reader(data)
    assert str(err.value) == message
