"""Talent scheduling: order scenes to minimize actor on-location cost.

State: the set Q of scenes still to shoot.  An actor is on location when
they play both in some remaining scene and in some finished scene, so a
scene whose cast exactly matches the on-location set shoots for free
extra cost and is forced.  Candidate filtering drops a scene when a
provably-better scene should precede it; the test is generated per scene
pair and evaluated on the fly at each expansion.  Scenes with identical
casts are merged (durations added) before the model is built.

The transitions stay ground, one pair per scene: the shape of each
scene's guard and cost depends on its cast, so no one lifted text holds
them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .. import bitset
from .. import expressions as ex
from ..model import (
    BaseCase,
    CostStructure,
    Model,
    SET,
    StateMetadata,
    Transition,
    Variable,
)
from . import common as c


@dataclass(frozen=True)
class TalentInstance:
    scene_actors: tuple[frozenset[int], ...]
    durations: tuple[int, ...]
    actor_costs: tuple[int, ...]

    def __post_init__(self):
        if len(self.scene_actors) != len(self.durations):
            raise ValueError("every scene needs a duration")
        for scene, cast in enumerate(self.scene_actors):
            for actor in sorted(cast):
                if not 0 <= actor < self.actors:
                    raise ValueError(
                        f"actor {actor} of scene {scene} is outside actors 0..{self.actors - 1}"
                    )

    @property
    def scenes(self) -> int:
        return len(self.scene_actors)

    @property
    def actors(self) -> int:
        return len(self.actor_costs)

    @cached_property
    def actor_scenes(self) -> tuple[frozenset[int], ...]:
        return tuple(
            frozenset(s for s, cast in enumerate(self.scene_actors) if a in cast)
            for a in range(self.actors)
        )

    @cached_property
    def base_pay(self) -> tuple[int, ...]:
        """Per scene: duration times the cast's daily cost."""
        return tuple(
            d * sum(self.actor_costs[a] for a in cast)
            for cast, d in zip(self.scene_actors, self.durations)
        )


def merge_identical_scenes(instance: TalentInstance) -> TalentInstance:
    """Combine scenes with the same cast, adding their durations."""
    merged: dict[frozenset[int], int] = {}
    order: list[frozenset[int]] = []
    for cast, duration in zip(instance.scene_actors, instance.durations):
        if cast not in merged:
            merged[cast] = 0
            order.append(cast)
        merged[cast] += duration
    return TalentInstance(
        scene_actors=tuple(order),
        durations=tuple(merged[cast] for cast in order),
        actor_costs=instance.actor_costs,
    )


def parse_talent(text: str) -> TalentInstance:
    """Text form: ``scenes actors``, one ``duration size actor...`` line
    per scene, then the per-actor daily cost line."""
    read = c.FieldReader(text)
    scenes = read.count("scene count")
    actors = read.count("actor count")
    casts = []
    durations = []
    for _ in range(scenes):
        durations.append(read())
        casts.append(frozenset(read() for _ in range(read.count("cast size"))))
    costs = tuple(read() for _ in range(actors))
    read.end()
    return TalentInstance(tuple(casts), tuple(durations), costs)


def build_talent(instance: TalentInstance) -> Model:
    instance = merge_identical_scenes(instance)
    n = instance.scenes
    meta = StateMetadata(
        {"scene": n, "actor": instance.actors},
        [Variable("Q", SET, "scene")],
    )
    tables = ex.TableRegistry(
        [
            c.vector_table("cost", instance.actor_costs),
            c.vector_table("pay", instance.base_pay),
        ]
    )
    Q = meta.set_("Q")

    def on_location(actor: int) -> ex.Condition:
        plays_in = c.sconst(sorted(instance.actor_scenes[actor]), n)
        return c.and_(
            c.not_(c.empty(ex.SetIntersection(plays_in, Q))),
            c.not_(c.empty(ex.SetDifference(plays_in, Q))),
        )

    def cast_equals_location(scene: int) -> ex.Condition:
        cast = instance.scene_actors[scene]
        parts = []
        for actor in range(instance.actors):
            here = on_location(actor)
            parts.append(here if actor in cast else c.not_(here))
        return c.and_(*parts)

    def shoot_cost(scene: int) -> ex.NumericExpression:
        cast = instance.scene_actors[scene]
        terms = []
        for actor in range(instance.actors):
            fee = c.ntab("cost", c.econst(actor))
            if actor in cast:
                terms.append(fee)
            else:
                terms.append(c.ite(on_location(actor), fee, 0))
        paid = c.add(*terms)
        return c.mul(instance.durations[scene], paid)

    def not_superseded(scene: int) -> list[ex.Condition]:
        """No remaining scene with a superset cast fully covered by the
        finished casts plus this scene's cast may exist."""
        checks = []
        cast = instance.scene_actors[scene]
        for other in range(n):
            if other == scene or not cast <= instance.scene_actors[other]:
                continue
            extras = sorted(instance.scene_actors[other] - cast)
            finished = [
                c.not_(
                    c.empty(
                        ex.SetDifference(
                            c.sconst(sorted(instance.actor_scenes[a]), n), Q
                        )
                    )
                )
                for a in extras
            ]
            covered = c.and_(c.member(other, Q), *finished)
            checks.append(c.not_(covered))
        return checks

    forced = []
    regular = []
    for scene in range(n):
        e = c.econst(scene)
        forced.append(
            Transition(
                name=f"wrap-{scene}",
                preconditions=(c.member(scene, Q), cast_equals_location(scene)),
                effects=((meta.index("Q"), ex.SetRemove(e, Q)),),
                weight=c.ntab("pay", e),
                forced=True,
            )
        )
        regular.append(
            Transition(
                name=f"shoot-{scene}",
                preconditions=tuple([c.member(scene, Q)] + not_superseded(scene)),
                effects=((meta.index("Q"), ex.SetRemove(e, Q)),),
                weight=shoot_cost(scene),
            )
        )

    return Model(
        metadata=meta,
        tables=tables,
        target=(bitset.from_items(range(n), n),),
        transitions=forced + regular,
        base_cases=[BaseCase((c.empty(Q),), c.nconst(0))],
        dual_bounds=[c.sum_over("pay", Q)],
        costs=CostStructure(operator="+", direction="min", cost_type="integer"),
    )
