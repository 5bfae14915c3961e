"""Instance-level functional dependency checks (Definition 2)."""

from repro.engine.dataset import DataSet
from repro.fd.dependency import FunctionalDependency, fd_holds_in
from repro.sqltypes.values import NULL


class TestFunctionalDependencyValue:
    def test_str(self):
        fd = FunctionalDependency(["a"], ["b", "c"])
        assert "->" in str(fd)

    def test_trivial(self):
        assert FunctionalDependency(["a", "b"], ["a"]).trivial()
        assert not FunctionalDependency(["a"], ["b"]).trivial()

    def test_equality_and_hash(self):
        assert FunctionalDependency(["a"], ["b"]) == FunctionalDependency(("a",), ("b",))
        {FunctionalDependency(["a"], ["b"])}


class TestFdHoldsIn:
    def test_holds(self):
        ds = DataSet(("a", "b"), [(1, "x"), (1, "x"), (2, "y")])
        assert fd_holds_in(ds, ["a"], ["b"])

    def test_violated(self):
        ds = DataSet(("a", "b"), [(1, "x"), (1, "y")])
        assert not fd_holds_in(ds, ["a"], ["b"])

    def test_null_equals_null_on_lhs(self):
        """Definition 2 uses =ⁿ: two NULL-keyed rows are 'equal' on the LHS,
        so differing RHS values violate the FD."""
        ds = DataSet(("a", "b"), [(NULL, "x"), (NULL, "y")])
        assert not fd_holds_in(ds, ["a"], ["b"])

    def test_null_equals_null_on_rhs(self):
        ds = DataSet(("a", "b"), [(1, NULL), (1, NULL)])
        assert fd_holds_in(ds, ["a"], ["b"])

    def test_null_vs_value_on_rhs_violates(self):
        ds = DataSet(("a", "b"), [(1, NULL), (1, "x")])
        assert not fd_holds_in(ds, ["a"], ["b"])

    def test_empty_lhs_means_constant(self):
        constant = DataSet(("a", "b"), [(1, "x"), (2, "x")])
        varying = DataSet(("a", "b"), [(1, "x"), (2, "y")])
        assert fd_holds_in(constant, [], ["b"])
        assert not fd_holds_in(varying, [], ["b"])

    def test_empty_rhs_trivially_holds(self):
        ds = DataSet(("a",), [(1,), (2,)])
        assert fd_holds_in(ds, ["a"], [])

    def test_empty_dataset(self):
        ds = DataSet(("a", "b"), [])
        assert fd_holds_in(ds, ["a"], ["b"])

    def test_composite_lhs(self):
        ds = DataSet(("a", "b", "c"), [(1, 1, "x"), (1, 2, "y"), (1, 1, "x")])
        assert fd_holds_in(ds, ["a", "b"], ["c"])
        assert not fd_holds_in(ds, ["a"], ["c"])
