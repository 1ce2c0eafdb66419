"""Builders and instance parsers: frozen desk values and invariants.

Expected costs were derived by exhaustive enumeration over the model
definitions (see conftest.exhaustive_optimum) and frozen here.
"""

import math
import random
import re
import zlib

import pytest

import dpsearch as dp
from dpsearch.problems import (
    CLASSES,
    BinPackingInstance,
    CvrpInstance,
    GraphClearInstance,
    MdkpInstance,
    MospInstance,
    MpdtspInstance,
    OptwInstance,
    Salbp1Instance,
    TalentInstance,
    TsptwInstance,
    WtInstance,
    build_binpacking,
    build_cvrp,
    build_graphclear,
    build_mdkp,
    build_mosp,
    build_mpdtsp,
    build_optw,
    build_salbp1,
    build_talent,
    build_tsptw,
    build_wt,
    merge_identical_scenes,
    parse_binpacking,
    parse_mdkp,
    parse_mpdtsp,
    parse_tsptw,
)
from dpsearch import yamlio
from conftest import exhaustive_optimum, strip_preferences

DESK_TRAVEL = ((0, 2, 3), (2, 0, 1), (3, 1, 0))


def oracle_cost(model):
    return dp.bellman_oracle(model).cost


class TestTsptw:
    def test_desk_optimum(self, desk_tsptw_model):
        assert oracle_cost(desk_tsptw_model) == 6

    def test_unreachable_deadline_is_infeasible(self):
        model = build_tsptw(TsptwInstance(DESK_TRAVEL, (0, 0, 0), (10, 1, 10)))
        assert oracle_cost(model) is None

    def test_depot_only(self):
        model = build_tsptw(TsptwInstance(((0,),), (0,), (10,)))
        assert oracle_cost(model) == 0

    def test_parse_derives_shortest_paths(self):
        text = "3\n0 2 3\n2 0 1\n3 1 0\n0 10\n0 10\n0 10\n"
        inst = parse_tsptw(text)
        assert inst.shortest[0][2] == 3  # min(3, 2 + 1)
        assert inst.cheapest_in == (2, 1, 1)
        assert inst.cheapest_out == (2, 1, 1)

    def test_parse_rejects_non_integer(self):
        with pytest.raises(ValueError):
            parse_tsptw("1\n0.5\n0 10\n")

    def test_parse_rejects_truncated(self):
        with pytest.raises(ValueError):
            parse_tsptw("")


class TestCvrp:
    def test_single_vehicle_per_customer(self):
        model = build_cvrp(CvrpInstance(DESK_TRAVEL, (0, 1, 1), 1, 2))
        assert oracle_cost(model) == 10

    def test_single_roomy_vehicle_matches_tour(self):
        model = build_cvrp(CvrpInstance(DESK_TRAVEL, (0, 1, 1), 2, 1))
        assert oracle_cost(model) == 6

    def test_insufficient_fleet_infeasible(self):
        model = build_cvrp(CvrpInstance(DESK_TRAVEL, (0, 1, 1), 1, 1))
        assert oracle_cost(model) is None

    def test_demand_over_capacity_rejected(self):
        with pytest.raises(ValueError):
            CvrpInstance(DESK_TRAVEL, (0, 2, 1), 1, 2)


class TestMpdtsp:
    EDGES = frozenset((i, j) for i in range(3) for j in range(3) if i != j)

    def test_plain_path(self):
        model = build_mpdtsp(MpdtspInstance(DESK_TRAVEL, self.EDGES, 1, ()))
        assert oracle_cost(model) == 3

    def test_pickup_before_delivery(self):
        model = build_mpdtsp(MpdtspInstance(DESK_TRAVEL, self.EDGES, 1, ((1, 2, 1),)))
        assert oracle_cost(model) == 3

    def test_zero_capacity_infeasible(self):
        model = build_mpdtsp(MpdtspInstance(DESK_TRAVEL, self.EDGES, 0, ((1, 2, 1),)))
        assert oracle_cost(model) is None

    def test_missing_final_edge_infeasible(self):
        edges = frozenset({(0, 1)})
        model = build_mpdtsp(MpdtspInstance(DESK_TRAVEL, edges, 1, ()))
        assert oracle_cost(model) is None


class TestOptw:
    def test_single_customer(self):
        inst = OptwInstance(((0, 2), (2, 0)), (0, 5), (0, 0), (10, 10))
        assert oracle_cost(build_optw(inst)) == 5

    def test_tight_depot_deadline_forces_removal(self):
        inst = OptwInstance(((0, 2), (2, 0)), (0, 5), (0, 0), (3, 10))
        assert oracle_cost(build_optw(inst)) == 0

    def test_depot_only(self):
        inst = OptwInstance(((0,),), (0,), (0,), (10,))
        assert oracle_cost(build_optw(inst)) == 0
        # the efficiency tables divide by the cheapest edges, so not 0
        assert inst.cheapest_in == inst.cheapest_out == (1,)


class TestMdkp:
    def test_desk(self):
        assert oracle_cost(build_mdkp(MdkpInstance((3, 4), ((2,), (3,)), (4,)))) == 4

    def test_everything_fits(self):
        assert oracle_cost(build_mdkp(MdkpInstance((3, 4), ((2,), (3,)), (5,)))) == 7

    def test_zero_items(self):
        assert oracle_cost(build_mdkp(MdkpInstance((), (), ()))) == 0

    def test_parse_gate_for_fractional_weights(self):
        text = "2 1\n3 4\n2.5\n3\n4\n"
        with pytest.raises(ValueError):
            parse_mdkp(text)
        inst = parse_mdkp(text, allow_fractional=True)
        assert inst.fractional
        model = build_mdkp(inst)
        assert dp.cabs(model).cost == oracle_cost(model)


class TestBinPacking:
    def test_desk(self):
        assert oracle_cost(build_binpacking(BinPackingInstance((5, 4, 3, 3), 8))) == 2

    def test_single_item(self):
        assert oracle_cost(build_binpacking(BinPackingInstance((5,), 8))) == 1

    def test_lower_bound_at_target_equals_optimum(self):
        model = build_binpacking(BinPackingInstance((5, 4, 3, 3), 8))
        assert model.eval_dual_bound(model.target) == 2  # ceil(15/8)

    def test_parse_and_bound_coefficients(self):
        inst = parse_binpacking("8\n4\n5 4 3 3")
        assert inst.capacity == 8 and inst.weights == (5, 4, 3, 3)
        assert inst.large_half == (1, 0, 0, 0)
        assert inst.exact_half_x2 == (0, 1, 0, 0)  # the lone exactly-half item

    def test_heavy_item_rejected(self):
        with pytest.raises(ValueError):
            BinPackingInstance((9,), 8)


class TestSalbp1:
    def test_desk(self):
        inst = Salbp1Instance((3, 3, 3), 6, (frozenset(), frozenset(), frozenset()))
        assert oracle_cost(build_salbp1(inst)) == 2

    def test_chain_precedence(self):
        inst = Salbp1Instance((3, 3, 3), 6, (frozenset(), frozenset({0}), frozenset({1})))
        assert oracle_cost(build_salbp1(inst)) == 2

    def test_one_task_per_station(self):
        inst = Salbp1Instance((6, 6, 6), 6, (frozenset(), frozenset(), frozenset()))
        assert oracle_cost(build_salbp1(inst)) == 3

    def test_cyclic_precedence_rejected(self):
        with pytest.raises(ValueError):
            Salbp1Instance((1, 1), 6, (frozenset({1}), frozenset({0})))


class TestTardiness:
    def test_desk(self):
        assert oracle_cost(build_wt(WtInstance((2, 3), (2, 2), (1, 1)))) == 3

    def test_loose_deadlines_cost_nothing(self):
        assert oracle_cost(build_wt(WtInstance((2, 3), (5, 5), (1, 1)))) == 0

    def test_single_late_job(self):
        assert oracle_cost(build_wt(WtInstance((5,), (0,), (2,)))) == 10

    def test_precedence_restricts_orders(self):
        free = oracle_cost(build_wt(WtInstance((2, 3), (2, 2), (1, 1))))
        forced = oracle_cost(
            build_wt(WtInstance((2, 3), (2, 2), (1, 1), (frozenset({1}), frozenset())))
        )
        assert forced == 4 >= free


class TestTalent:
    def test_desk(self):
        inst = TalentInstance((frozenset({0}), frozenset({0, 1})), (1, 1), (1, 1))
        assert oracle_cost(build_talent(inst)) == 3

    def test_single_scene_costs_base_pay(self):
        inst = TalentInstance((frozenset({0, 1}),), (2,), (1, 3))
        assert oracle_cost(build_talent(inst)) == 8  # d * (c_a + c_b)

    def test_on_location_set_by_hand(self):
        # Q = {1}, casts {a}, {a, b}: only actor a is on location
        inst = TalentInstance((frozenset({0}), frozenset({0, 1})), (1, 1), (1, 1))
        assert inst.actor_scenes[0] == frozenset({0, 1})
        assert inst.actor_scenes[1] == frozenset({1})
        # a plays in a shot scene (0) and a remaining scene (1); b has not shot yet

    def test_identical_casts_merge(self):
        inst = TalentInstance(
            (frozenset({0}), frozenset({0}), frozenset({1})), (1, 2, 1), (1, 1)
        )
        merged = merge_identical_scenes(inst)
        assert merged.scenes == 2
        assert merged.durations == (3, 1)


class TestMosp:
    def test_disjoint_customers(self):
        inst = MospInstance((frozenset({0}), frozenset({1})), 2)
        assert oracle_cost(build_mosp(inst)) == 1

    def test_shared_product(self):
        inst = MospInstance((frozenset({0}), frozenset({0})), 1)
        assert oracle_cost(build_mosp(inst)) == 2

    def test_single_customer(self):
        inst = MospInstance((frozenset({0}),), 1)
        assert oracle_cost(build_mosp(inst)) == 1


class TestGraphClear:
    def test_two_nodes(self):
        assert oracle_cost(build_graphclear(GraphClearInstance((1, 1), {(0, 1): 1}))) == 2

    def test_single_node(self):
        assert oracle_cost(build_graphclear(GraphClearInstance((3,), {}))) == 3

    def test_triangle_counts_crossing_edges(self):
        # second sweep: node weight 1 + its two edges + the swept-to-unswept
        # crossing edge = 4 (the first and last sweeps cost 3)
        inst = GraphClearInstance((1, 1, 1), {(0, 1): 1, (0, 2): 1, (1, 2): 1})
        assert oracle_cost(build_graphclear(inst)) == 4

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            GraphClearInstance((1,), {(0, 0): 1})


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_builders_validate_clean(name):
    rng = random.Random(zlib.crc32(name.encode()))
    cls = CLASSES[name]
    for _ in range(5):
        model = cls.build(cls.random(rng))
        assert dp.validate(model) == []


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_dual_bounds_admissible_at_every_state(name):
    """Every declared bound, at every state the oracle touches, must not
    cross the true value of that state (from below for minimization,
    from above for maximization)."""
    rng = random.Random(zlib.crc32(name.encode()) + 5)
    cls = CLASSES[name]
    for _ in range(100):
        model = cls.build(cls.random(rng))
        minimize = model.costs.minimize
        result = dp.bellman_oracle(model)
        for state, value in result.values.items():
            if isinstance(value, float) and math.isinf(value):
                continue  # no solution from this state: any bound is valid
            bound = model.eval_dual_bound(state)
            if minimize:
                assert bound <= value, (state, bound, value)
            else:
                assert bound >= value, (state, bound, value)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_dominance_is_sound(name):
    """Stripping resource preferences must not change the optimum."""
    rng = random.Random(zlib.crc32(name.encode()) + 1)
    cls = CLASSES[name]
    for _ in range(10):
        model = cls.build(cls.random(rng))
        expected = dp.bellman_oracle(model).cost
        bare = strip_preferences(model)
        solution = dp.cabs(bare)
        got = solution.cost if solution.status != dp.Status.INFEASIBLE else None
        assert got == expected


@pytest.mark.parametrize("name", ("optw", "binpacking", "salbp1", "talent"))
def test_forced_flags_are_sound(name):
    """The oracle over the full and the forced-restricted transition
    sets must agree for every builder that declares forced transitions."""
    rng = random.Random(zlib.crc32(name.encode()) + 2)
    cls = CLASSES[name]
    for _ in range(20):
        model = cls.build(cls.random(rng))
        assert dp.bellman_oracle(model).cost == dp.bellman_oracle(model, use_forced=True).cost


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_matches_independent_enumeration(name):
    rng = random.Random(zlib.crc32(name.encode()) + 3)
    cls = CLASSES[name]
    for _ in range(10):
        model = cls.build(cls.random(rng))
        assert dp.bellman_oracle(model).cost == exhaustive_optimum(model)


def _lines(*rows) -> str:
    """Text with one line per row; a row is a sequence of fields."""
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _pairs(predecessors) -> list:
    """``before after`` rows of a precedence relation."""
    return [(b, a) for a, before in enumerate(predecessors) for b in sorted(before)]


# Each instance written in its parser's documented text format.
FORMATS = {
    "binpacking": lambda x: _lines([x.capacity], [len(x.weights)], x.weights),
    "cvrp": lambda x: _lines(
        [len(x.travel)], *x.travel, x.demands, [x.capacity, x.vehicles]
    ),
    "graphclear": lambda x: _lines(
        [len(x.node_weights)], x.node_weights, [len(x.edge_weights)],
        *[(i, j, w) for (i, j), w in sorted(x.edge_weights.items())],
    ),
    "mdkp": lambda x: _lines(
        [len(x.profits), len(x.capacities)], x.profits, *x.weights, x.capacities
    ),
    "mosp": lambda x: _lines(
        [len(x.customer_products), x.products],
        *[[len(order), *sorted(order)] for order in x.customer_products],
    ),
    "mpdtsp": lambda x: _lines(
        [len(x.travel), len(x.commodities), x.capacity, len(x.edges)],
        *x.travel, *x.commodities, *sorted(x.edges),
    ),
    "optw": lambda x: _lines(
        [len(x.travel)], *x.travel, *zip(x.profits, x.ready, x.deadline)
    ),
    "salbp1": lambda x: _lines(
        [x.capacity], [len(x.weights)], x.weights, *_pairs(x.predecessors)
    ),
    "talent": lambda x: _lines(
        [len(x.scene_actors), len(x.actor_costs)],
        *[[d, len(cast), *sorted(cast)] for d, cast in zip(x.durations, x.scene_actors)],
        x.actor_costs,
    ),
    "tsptw": lambda x: _lines([len(x.travel)], *x.travel, *zip(x.ready, x.deadline)),
    "wt": lambda x: _lines(
        [len(x.processing)], *zip(x.processing, x.due, x.weights), *_pairs(x.predecessors)
    ),
}


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_parse_formats_roundtrip_through_text(name):
    """Each parser reads its documented format: a random instance written
    in that format parses back equal."""
    rng = random.Random(zlib.crc32(name.encode()) + 4)
    cls = CLASSES[name]
    for _ in range(20):
        inst = cls.random(rng)
        text = FORMATS[name](inst)
        assert cls.parse(text) == inst, text
    # every class must at least reject empty text
    with pytest.raises(ValueError):
        cls.parse("")


# One small valid text per class, in its documented format.
VALID_TEXTS = {
    "binpacking": "8\n4\n5 4 3 3\n",
    "cvrp": "3\n0 2 3\n2 0 1\n3 1 0\n0 1 1\n2 2\n",
    "graphclear": "3\n1 2 3\n2\n0 1 4\n1 2 5\n",
    "mdkp": "2 1\n3 4\n2\n3\n4\n",
    "mosp": "2 3\n2 0 1\n1 2\n",
    "mpdtsp": "3 1 5 2\n0 2 3\n2 0 1\n3 1 0\n0 1 2\n0 1\n1 2\n",
    "optw": "3\n0 2 3\n2 0 1\n3 1 0\n0 0 10\n5 0 10\n4 0 10\n",
    "salbp1": "10\n3\n4 5 6\n",
    "talent": "2 2\n1 1 0\n2 2 0 1\n3 4\n",
    "tsptw": "3\n0 2 3\n2 0 1\n3 1 0\n0 10\n0 10\n0 10\n",
    "wt": "2\n3 4 1\n2 5 2\n",
}


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_parse_rejects_a_dropped_last_field(name):
    cls = CLASSES[name]
    text = VALID_TEXTS[name]
    cls.build(cls.parse(text))
    truncated = text.rstrip().rsplit(maxsplit=1)[0]
    with pytest.raises(ValueError, match="^truncated instance text$"):
        cls.parse(truncated)


# salbp1 and wt read every field after the tasks as precedence pairs.
@pytest.mark.parametrize("name", sorted(set(CLASSES) - {"salbp1", "wt"}))
def test_parse_rejects_text_past_the_last_field(name):
    cls = CLASSES[name]
    with pytest.raises(ValueError, match="^unexpected field '7' past the end of the instance"):
        cls.parse(VALID_TEXTS[name] + " 7 7 7")


NEGATIVE_COUNTS = [
    ("binpacking", "8\n-1\n", "item count -1"),
    ("cvrp", "-1\n2 2\n", "customer count -1"),
    ("graphclear", "-1\n", "node count -1"),
    ("graphclear", "3\n1 2 3\n-2\n", "edge count -2"),
    ("mdkp", "-1 1\n", "item count -1"),
    ("mdkp", "2 -1\n3 4\n", "dimension count -1"),
    ("mosp", "-2 3\n", "customer count -2"),
    ("mosp", "2 -3\n", "product count -3"),
    ("mosp", "2 3\n-1 0\n", "order size -1"),
    ("mpdtsp", "-1 1 5 2\n", "customer count -1"),
    ("mpdtsp", "3 -1 5 2\n", "commodity count -1"),
    ("mpdtsp", "3 0 5 -2\n0 2 3\n2 0 1\n3 1 0\n", "edge count -2"),
    ("optw", "-1\n", "customer count -1"),
    ("salbp1", "10\n-1\n", "task count -1"),
    ("talent", "-1 2\n", "scene count -1"),
    ("talent", "2 -1\n", "actor count -1"),
    ("talent", "2 2\n1 -1\n", "cast size -1"),
    ("tsptw", "-1\n", "customer count -1"),
    ("wt", "-1\n", "job count -1"),
]


@pytest.mark.parametrize("name, text, count", NEGATIVE_COUNTS)
def test_parse_rejects_a_negative_count(name, text, count):
    with pytest.raises(ValueError, match=f"^negative {count}$"):
        CLASSES[name].parse(text)


def test_every_class_rejects_a_negative_count():
    assert {name for name, _, _ in NEGATIVE_COUNTS} == set(CLASSES)


@pytest.mark.parametrize("edge", ["1 9", "3 0", "-1 0"])
def test_mpdtsp_edge_outside_the_customers(edge):
    text = VALID_TEXTS["mpdtsp"]
    assert text.endswith("\n1 2\n")
    with pytest.raises(ValueError, match=f"^edge {edge} is outside customers 0..2$"):
        parse_mpdtsp(text[: -len("1 2\n")] + edge + "\n")


@pytest.mark.parametrize("name", ["salbp1", "wt"])
@pytest.mark.parametrize("pair", ["0 3", "3 0", "-1 0", "0 -1"])
def test_precedence_pair_outside_the_tasks(name, pair):
    cls = CLASSES[name]
    cls.parse(VALID_TEXTS[name] + "0 1\n")  # an in-range pair is fine
    with pytest.raises(ValueError, match=f"precedence pair {pair} is outside tasks"):
        cls.parse(VALID_TEXTS[name] + pair + "\n")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TalentInstance((frozenset({5}), frozenset({0})), (1, 1), (3, 4)),
         "actor 5 of scene 0 is outside actors 0..1"),
        (lambda: TalentInstance((frozenset({0}), frozenset({-1})), (1, 1), (3, 4)),
         "actor -1 of scene 1 is outside actors 0..1"),
        (lambda: MospInstance((frozenset({0, 1}), frozenset({3})), 3),
         "product 3 of customer 1 is outside products 0..2"),
        (lambda: MospInstance((frozenset({-1}),), 3),
         "product -1 of customer 0 is outside products 0..2"),
        (lambda: GraphClearInstance((1, 2, 3), {(0, 7): 4}), "edge 0 7 is outside nodes 0..2"),
        (lambda: GraphClearInstance((1, 2, 3), {(-1, 2): 4}), "edge -1 2 is outside nodes 0..2"),
        (lambda: Salbp1Instance((-1, 2), 5, (frozenset(), frozenset())),
         "weights must be nonnegative"),
        (lambda: Salbp1Instance((6, 2), 5, (frozenset(), frozenset())),
         "an item is heavier than the bin capacity"),
    ],
)
def test_instance_rejects_an_index_or_weight_out_of_range(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_salbp1_is_bin_packing_with_precedence():
    inst = Salbp1Instance((5, 4, 3, 3), 8, (frozenset(),) * 4)
    packing = BinPackingInstance((5, 4, 3, 3), 8)
    assert isinstance(inst, BinPackingInstance)
    for bound in ("large_half", "exact_half_x2", "third_class_x6"):
        assert getattr(inst, bound) == getattr(packing, bound)


@pytest.mark.parametrize("pickup, delivery", [(0, 3), (3, 1), (-1, 1)])
def test_mpdtsp_commodity_outside_the_customers(pickup, delivery):
    text = VALID_TEXTS["mpdtsp"].replace("\n0 1 2\n", f"\n{pickup} {delivery} 2\n")
    with pytest.raises(ValueError, match=f"commodity {pickup} -> {delivery} is outside"):
        parse_mpdtsp(text)


ROUTING = {
    "tsptw": lambda travel: TsptwInstance(travel, (0, 0, 0), (10, 10, 10)),
    "cvrp": lambda travel: CvrpInstance(travel, (0, 1, 1), 2, 1),
    "mpdtsp": lambda travel: MpdtspInstance(travel, TestMpdtsp.EDGES, 1, ()),
    "optw": lambda travel: OptwInstance(travel, (0, 5, 5), (0, 0, 0), (10, 10, 10)),
}


@pytest.mark.parametrize("name", sorted(ROUTING))
@pytest.mark.parametrize(
    "travel, message",
    [
        ((), "instance needs at least the depot"),
        (((0, 2, 3), (2, 0), (3, 1, 0)), "travel matrix must be square"),
        (((0, 2, 3), (2, 0, 1)), "travel matrix must be square"),
        (((0, 2, 3), (2, 0, -5), (3, 1, 0)), "travel times must be nonnegative integers"),
        (((0, 2, 3), (2, 0, 1.5), (3, 1, 0)), "travel times must be nonnegative integers"),
        (((0, 2, 3), (2, 0, "1"), (3, 1, 0)), "travel times must be nonnegative integers"),
    ],
)
def test_routing_rejects_a_bad_travel_matrix(name, travel, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ROUTING[name](travel)


def test_cvrp_rejects_a_negative_travel_time():
    # the tour 0 -> 1 -> 0 would cost -10
    with pytest.raises(ValueError, match="nonnegative integers"):
        CvrpInstance(((0, -5), (-5, 0)), (0, 1), 2, 1)


@pytest.mark.parametrize("name", sorted(ROUTING))
def test_routing_derives_shortest_paths_and_cheapest_edges(name):
    instance = ROUTING[name](((0, 2, 9), (2, 0, 1), (9, 1, 0)))
    assert instance.n == 3
    assert instance.shortest == ((0, 2, 3), (2, 0, 1), (3, 1, 0))
    assert instance.cheapest_in == instance.cheapest_out == (2, 1, 1)


# One empty instance per class: no items, tasks, jobs, scenes, actors,
# customers or nodes; a routing instance keeps its depot (m-PDTSP its
# start and end).
EMPTY = {
    "binpacking": BinPackingInstance((), 5),
    "cvrp": CvrpInstance(((0,),), (0,), 5, 1),
    "graphclear": GraphClearInstance((), {}),
    "mdkp": MdkpInstance((), (), (5,)),
    "mosp": MospInstance((), 0),
    "mpdtsp": MpdtspInstance(((0, 2), (2, 0)), frozenset({(0, 1)}), 5, ()),
    "mpdtsp with one customer": MpdtspInstance(((0,),), frozenset(), 5, ()),
    "optw": OptwInstance(((0,),), (0,), (0,), (10,)),
    "salbp1": Salbp1Instance((), 5, ()),
    "talent": TalentInstance((), (), ()),
    "talent without actors": TalentInstance((frozenset(),), (3,), ()),
    "tsptw": TsptwInstance(((0,),), (0,), (10,)),
    "wt": WtInstance((), (), ()),
}


@pytest.mark.parametrize("name", sorted(EMPTY))
def test_an_empty_instance_converts_and_solves(name):
    model = CLASSES[name.split()[0]].build(EMPTY[name])
    read_back = yamlio.load_model(*yamlio.serialize_model(model))
    expected = oracle_cost(model)
    assert expected is not None
    assert read_back == model
    assert oracle_cost(read_back) == expected
    assert dp.caasdy(read_back).cost == expected


@pytest.mark.parametrize("make", [
    lambda before: build_salbp1(Salbp1Instance((3, 4, 5, 2), 10, before)),
    lambda before: build_wt(WtInstance((3, 4, 5, 2), (4, 6, 9, 9), (1, 2, 3, 1), before)),
    lambda before: build_mpdtsp(MpdtspInstance(
        tuple(tuple(abs(i - j) for j in range(4)) for i in range(4)),
        frozenset((i, j) for i in range(4) for j in range(4) if i != j),
        2,
        () if not any(before) else ((1, 2, 1),),
    )),
], ids=["salbp1", "wt", "mpdtsp"])
def test_precedence_keeps_one_shape_per_transition_family(make):
    """Every member carries its precedence guard, empty or not, so two
    instances of one size that differ only in precedence share their code."""
    free = make((frozenset(),) * 4)
    ordered = make((frozenset(), frozenset(), frozenset({1}), frozenset()))
    assert [len(t.preconditions) for t in free.transitions] == [
        len(t.preconditions) for t in ordered.transitions
    ]
    assert free._queries.expand.__code__ is ordered._queries.expand.__code__


def _ring(n: int):
    return tuple(tuple(0 if i == j else 1 + (i + j) % 3 for j in range(n)) for i in range(n))


def _last_after_first(n: int):
    return (frozenset(),) * (n - 1) + (frozenset({0}),)


# One instance of every class over n objects
SIZED = {
    "binpacking": lambda n: BinPackingInstance((1,) * n, 2),
    "cvrp": lambda n: CvrpInstance(_ring(n), (0,) + (1,) * (n - 1), 2, n),
    "graphclear": lambda n: GraphClearInstance((1,) * n, {(0, 1): 1}),
    "mdkp": lambda n: MdkpInstance((1,) * n, ((1,),) * n, (2,)),
    "mosp": lambda n: MospInstance(tuple(frozenset({k % 2}) for k in range(n)), 2),
    "mpdtsp": lambda n: MpdtspInstance(
        _ring(n), frozenset((i, j) for i in range(n) for j in range(n) if i != j), 2,
        ((1, 2, 1),)),
    "optw": lambda n: OptwInstance(_ring(n), (0,) + (1,) * (n - 1), (0,) * n, (9,) * n),
    "salbp1": lambda n: Salbp1Instance((1,) * n, 2, _last_after_first(n)),
    "talent": lambda n: TalentInstance(
        tuple(frozenset({k}) for k in range(n)), (1,) * n, (1,) * n),
    "tsptw": lambda n: TsptwInstance(_ring(n), (0,) * n, (9,) * n),
    "wt": lambda n: WtInstance((1,) * n, (1,) * n, (1,) * n, _last_after_first(n)),
}

# The classes whose transitions stay ground, one or two per object, and why
GROUND = {
    "cvrp": "as two families it grounds family by family and its fused expand loops twice",
    "talent": "the shape of each scene's guard and cost depends on its cast",
}


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_lifted_classes_declare_as_many_transitions_at_every_size(name):
    small, large = (CLASSES[name].build(SIZED[name](n)) for n in (4, 12))
    if name != "mdkp":  # its two transitions range over no object
        assert len(small.transitions) < len(large.transitions)
    declared = len(small.declared_transitions), len(large.declared_transitions)
    if name in GROUND:
        assert declared[0] < declared[1]
    else:
        assert declared[0] == declared[1]
