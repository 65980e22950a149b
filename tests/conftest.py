import pytest

from kummerlcp import f49_curve, make_curve, make_field
from kummerlcp.ffield import FieldSpec
from kummerlcp.instances import f169_curve, dickson_curve_single

# one line per acceptance criterion, printed after the run (outside capture)
acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(acceptance_lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def gf7():
    return make_field(7, 1)


@pytest.fixture(scope="session")
def gf9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def gf49():
    return make_field(7, 2)


@pytest.fixture(scope="session")
def ex37_curve():
    return make_curve(None, 6, [1, 1, 1, 3, 5])


@pytest.fixture(scope="session")
def f49(gf49):
    return f49_curve()


@pytest.fixture(scope="session")
def f169():
    return f169_curve()


@pytest.fixture(scope="session")
def toy9(gf9):
    # hyperelliptic toy with four completely split x-values
    return make_curve(gf9, 2, [(a, 1) for a in (0, 1, 3, 4, 8)])


@pytest.fixture(scope="session")
def dickson_m8():
    return dickson_curve_single(8, 7)


@pytest.fixture(scope="session")
def dickson103():
    # GF(103^2), 1557 completely split x-values
    return dickson_curve_single(8, 103)


@pytest.fixture
def kernel_calls(monkeypatch):
    """How often each FieldSpec array kernel is called, nested calls included."""
    calls = {}

    def spy(name, kernel):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args, **kwargs)
        return counted

    for name in ("add_arr", "sub_arr", "neg_arr", "mul_arr", "pow_arr", "pow_prod"):
        monkeypatch.setattr(FieldSpec, name, spy(name, getattr(FieldSpec, name)))
    return calls
