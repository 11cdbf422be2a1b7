"""Coverage for plan-node EXPLAIN labels and tree structure."""

from repro.sql.ast_nodes import ColumnRef, Comparison, Literal, Operator
from repro.sql.plan import (
    DistinctNode,
    FilterNode,
    GroupHavingCountNode,
    HashJoinNode,
    IndexProbeNode,
    LimitNode,
    NestedLoopJoinNode,
    ProjectNode,
    ScanNode,
    SortNode,
    UnionAllNode,
)


def scan(binding="M", relation="MOVIE"):
    return ScanNode(relation=relation, binding=binding)


class TestLabels:
    def test_scan_with_alias(self):
        assert scan().label() == "Scan(MOVIE as M)"
        assert scan(binding="MOVIE").label() == "Scan(MOVIE)"

    def test_index_probe(self):
        node = IndexProbeNode(relation="GENRE", binding="G", attribute="genre", value="drama")
        assert node.label() == "IndexProbe(G.genre = 'drama')"

    def test_filter(self):
        condition = Comparison(ColumnRef("year", "M"), Operator.GE, Literal(1990))
        node = FilterNode(child=scan(), conditions=(condition,))
        assert node.label() == "Filter(M.year >= 1990)"

    def test_hash_join(self):
        node = HashJoinNode(
            left=scan(), right=scan("G", "GENRE"),
            left_column="M.mid", right_column="G.mid",
        )
        assert node.label() == "HashJoin(M.mid = G.mid)"

    def test_nested_loop_variants(self):
        cross = NestedLoopJoinNode(left=scan(), right=scan("G", "GENRE"))
        assert cross.label() == "CrossProduct"

    def test_shaping_labels(self):
        project = ProjectNode(child=scan(), columns=("M.title",))
        assert project.label() == "Project(M.title)"
        assert ProjectNode(child=scan(), columns=()).label() == "Project(*)"
        sort = SortNode(child=scan(), keys=(("title", True), ("year", False)))
        assert sort.label() == "Sort(title desc, year)"
        assert LimitNode(child=scan(), limit=3).label() == "Limit(3)"
        union = UnionAllNode(inputs=(scan(), scan("G", "GENRE")))
        assert union.label() == "UnionAll(2 inputs)"
        group = GroupHavingCountNode(child=union, count=2)
        assert group.label() == "GroupHavingCount(count = 2)"
        relaxed = GroupHavingCountNode(child=union, count=2, at_least=True)
        assert relaxed.label() == "GroupHavingCount(count >= 2)"


class TestTree:
    def test_explain_indentation_levels(self):
        plan = LimitNode(
            child=SortNode(
                child=ProjectNode(child=scan(), columns=("M.title",)),
                keys=(("title", False),),
            ),
            limit=5,
        )
        lines = plan.explain().splitlines()
        assert [line.count("  ") for line in lines] == [0, 1, 2, 3]

    def test_children_traversal(self):
        join = HashJoinNode(
            left=scan(), right=scan("G", "GENRE"),
            left_column="M.mid", right_column="G.mid",
        )
        assert len(join.children()) == 2
        assert DistinctNode(child=scan()).children() == [scan()]
        assert scan().children() == []
