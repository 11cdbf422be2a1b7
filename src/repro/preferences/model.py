"""Preference conditions, atomic preferences, and preference paths."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import PreferenceError
from repro.preferences.composition import DoiAlgebra, PRODUCT_ALGEBRA
from repro.sql.ast_nodes import ColumnRef, Comparison, Literal, Operator


@dataclass(frozen=True)
class SelectionCondition:
    """A potential selection: ``relation.attribute op value``.

    Corresponds to a selection edge of the personalization graph (from an
    attribute node to a value node). The paper's examples use equality;
    range operators are supported for the workload generators.
    """

    relation: str
    attribute: str
    value: object
    op: Operator = Operator.EQ

    @property
    def anchor_relation(self) -> str:
        return self.relation

    def to_comparison(self, qualifier: Optional[str] = None) -> Comparison:
        return Comparison(
            left=ColumnRef(name=self.attribute, qualifier=qualifier or self.relation),
            op=self.op,
            right=Literal(self.value),
        )

    def __str__(self) -> str:
        return "%s.%s %s %s" % (
            self.relation,
            self.attribute,
            self.op.value,
            Literal(self.value),
        )


@dataclass(frozen=True)
class JoinCondition:
    """A potential (directed) join: ``left.attr = right.attr``.

    Directionality matters for interest flow: the preference expresses
    how preferences on the *right* relation influence the *left* one
    (Section 3), so paths extend from left to right.
    """

    left_relation: str
    left_attribute: str
    right_relation: str
    right_attribute: str

    def __post_init__(self) -> None:
        if self.left_relation == self.right_relation:
            raise PreferenceError(
                "self-join preferences are not supported: %s" % (self.left_relation,)
            )

    @property
    def anchor_relation(self) -> str:
        return self.left_relation

    @property
    def target_relation(self) -> str:
        return self.right_relation

    def to_comparison(
        self,
        left_qualifier: Optional[str] = None,
        right_qualifier: Optional[str] = None,
    ) -> Comparison:
        return Comparison(
            left=ColumnRef(
                name=self.left_attribute, qualifier=left_qualifier or self.left_relation
            ),
            op=Operator.EQ,
            right=ColumnRef(
                name=self.right_attribute,
                qualifier=right_qualifier or self.right_relation,
            ),
        )

    def __str__(self) -> str:
        return "%s.%s = %s.%s" % (
            self.left_relation,
            self.left_attribute,
            self.right_relation,
            self.right_attribute,
        )


Condition = Union[SelectionCondition, JoinCondition]


@dataclass(frozen=True)
class AtomicPreference:
    """A doi attached to one edge of the personalization graph."""

    condition: Condition
    doi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.doi <= 1.0:
            raise PreferenceError(
                "doi must be in [0, 1], got %r for %s" % (self.doi, self.condition)
            )

    @property
    def is_selection(self) -> bool:
        return isinstance(self.condition, SelectionCondition)

    @property
    def is_join(self) -> bool:
        return isinstance(self.condition, JoinCondition)

    @property
    def anchor_relation(self) -> str:
        return self.condition.anchor_relation

    def __str__(self) -> str:
        return "doi(%s) = %.3g" % (self.condition, self.doi)


class PreferencePath:
    """An atomic or implicit preference: a directed acyclic path in G.

    A path is a sequence of adjacent atomic preferences — zero or more
    join steps, optionally terminated by a selection step. Adjacency
    means each join step's target relation anchors the next step;
    acyclicity means no relation is visited twice (Figure 3's
    ``p ∧ pi is acyclic`` check).
    """

    def __init__(self, steps: Sequence[AtomicPreference]) -> None:
        if not steps:
            raise PreferenceError("a preference path needs at least one step")
        visited: List[str] = [steps[0].anchor_relation]
        for i, step in enumerate(steps):
            if step.anchor_relation != visited[-1]:
                raise PreferenceError(
                    "path step %d (%s) is not adjacent to relation %s"
                    % (i, step.condition, visited[-1])
                )
            if step.is_selection:
                if i != len(steps) - 1:
                    raise PreferenceError(
                        "selection step %s must terminate the path" % (step.condition,)
                    )
            else:
                assert isinstance(step.condition, JoinCondition)
                target = step.condition.target_relation
                if target in visited:
                    raise PreferenceError(
                        "cyclic path: relation %s visited twice" % target
                    )
                visited.append(target)
        self.steps: Tuple[AtomicPreference, ...] = tuple(steps)
        self._visited: Tuple[str, ...] = tuple(visited)

    # -- classification ---------------------------------------------------------

    @property
    def is_selection(self) -> bool:
        """True when the path ends with a selection edge (paths kept in P)."""
        return self.steps[-1].is_selection

    @property
    def is_join(self) -> bool:
        return not self.is_selection

    @property
    def anchor_relation(self) -> str:
        """The relation the path attaches to (must appear in the query)."""
        return self._visited[0]

    @property
    def frontier_relation(self) -> str:
        """The relation at the open end of the path (extension point)."""
        return self._visited[-1]

    @property
    def relations(self) -> Tuple[str, ...]:
        """All relations on the path, anchor first."""
        return self._visited

    @property
    def joined_relations(self) -> Tuple[str, ...]:
        """Relations the path pulls into a sub-query (everything but the anchor)."""
        return self._visited[1:]

    @property
    def conditions(self) -> Tuple[Condition, ...]:
        return tuple(step.condition for step in self.steps)

    # -- composition -----------------------------------------------------------------

    def doi(self, algebra: DoiAlgebra = PRODUCT_ALGEBRA) -> float:
        """Formula (1): doi of the implicit preference via ``f⊗``."""
        return algebra.path_doi([step.doi for step in self.steps])

    def extended(self, step: AtomicPreference) -> "PreferencePath":
        """This path with one more adjacent atomic step (validates)."""
        return PreferencePath(self.steps + (step,))

    # -- identity -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.steps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PreferencePath) and self.conditions == other.conditions

    def __hash__(self) -> int:
        return hash(self.conditions)

    def __str__(self) -> str:
        return " and ".join(str(c) for c in self.conditions)

    def __repr__(self) -> str:
        return "PreferencePath(%s)" % self


def _bounds(cond: SelectionCondition):
    """(low, low_strict, high, high_strict) for range reasoning."""
    if cond.op is Operator.EQ:
        return cond.value, False, cond.value, False
    if cond.op is Operator.GE:
        return cond.value, False, None, False
    if cond.op is Operator.GT:
        return cond.value, True, None, False
    if cond.op is Operator.LE:
        return None, False, cond.value, False
    if cond.op is Operator.LT:
        return None, False, cond.value, True
    return None, False, None, False  # NE constrains nothing here


def selection_conflicts(a: SelectionCondition, b: SelectionCondition) -> bool:
    """True when two selection conditions are provably unsatisfiable together.

    Conjunctions of preferences from a profile can contradict each other
    (``genre = 'musical'`` and ``genre = 'horror'`` on the same tuple);
    the independence-based size model cannot see this, so the estimator
    consults these provable conflicts to pin such states to size 0.

    Detected cases, all on the same ``relation.attribute``:

    * two different equality values;
    * an equality against an inequality (<>) on the same value;
    * an empty range (lower bound above upper bound, with strictness).
    """
    if (a.relation, a.attribute) != (b.relation, b.attribute):
        return False

    # Equality vs inequality on the same value.
    pairs = ((a, b), (b, a))
    for eq, other in pairs:
        if eq.op is Operator.EQ and other.op is Operator.NE and eq.value == other.value:
            return True

    low_a, strict_la, high_a, strict_ha = _bounds(a)
    low_b, strict_lb, high_b, strict_hb = _bounds(b)
    try:
        low = low_a if low_b is None else low_b if low_a is None else max(low_a, low_b)
        high = high_a if high_b is None else high_b if high_a is None else min(high_a, high_b)
        if low is None or high is None:
            return False
        if low > high:
            return True
        if low == high:
            strict_low = (low_a == low and strict_la) or (low_b == low and strict_lb)
            strict_high = (high_a == high and strict_ha) or (high_b == high and strict_hb)
            return strict_low or strict_high
    except TypeError:
        return False  # unorderable value types: assume satisfiable
    return False
