"""Every ```python block of README.md runs, and gives the results its comments state."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


@pytest.fixture(scope="module")
def namespaces():
    """(source, namespace after running it) for every block, each in a fresh namespace."""
    ran = []
    for source in BLOCKS:
        namespace = {"__name__": "readme"}
        exec(compile(source, str(README), "exec"), namespace)
        ran.append((source, namespace))
    return ran


def _namespace(namespaces, marker):
    (namespace,) = [namespace for source, namespace in namespaces if marker in source]
    return namespace


def test_quickstart_projects_onto_the_unit_ball(namespaces):
    problem = _namespace(namespaces, "problem_projection_ball(")["problem"]
    assert problem.x == pytest.approx([0.6, 0.8], abs=1e-9)
    assert problem.group("ball").multiplier.values == pytest.approx([4.0], abs=1e-9)


def test_custom_problem_projects_onto_the_half_plane(namespaces):
    namespace = _namespace(namespaces, "def evaluate_with_gradients(")
    problem = namespace["problem"]
    assert isinstance(problem, namespace["ConstrainedMinimizationProblem"])
    assert problem.x == pytest.approx([1.0, 0.0], abs=1e-9)
    assert problem.group("sum").multiplier.values == pytest.approx([2.0], abs=1e-9)


def test_custom_optimizer_solves_the_equality_qp(namespaces):
    namespace = _namespace(namespaces, "def _step(")
    problem = namespace["problem"]
    assert problem.x == pytest.approx([1.5, 0.5], abs=1e-9)
    assert problem.group("linear").multiplier.values == pytest.approx([-0.5], abs=1e-9)
    x_new, staged = namespace["ClippedDescent"](0.5).step([1.0, 1.0], [4.0, -0.5])
    assert x_new.tolist() == [0.5, 1.25] and staged is None
