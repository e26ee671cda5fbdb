import numpy as np
import pytest

from heppcat import FactorModel, GroupedData, VCoefficients, compress_gram

_acceptance_lines: list = []


def record_acceptance(line: str) -> None:
    """Collect one pass/fail line; printed in the terminal summary."""
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def random_coefficients(rng, k=None, zero_energy_prob=0.1):
    """Random well-formed coefficient sets mirroring v_coefficients output."""
    k = int(rng.integers(1, 5)) if k is None else k
    d = int(rng.integers(k + 1, k + 12))
    gamma = np.sort(rng.uniform(0.0, 5.0, size=k))[::-1]
    gamma[rng.random(k) < 0.15] = 0.0  # clamped spectrum entries
    beta = rng.uniform(0.0, 10.0, size=k + 1)
    if rng.random() < zero_energy_prob:
        beta[np.concatenate(([0.0], gamma)) == 0.0] = 0.0
    alpha = np.concatenate(([float(d - k)], np.ones(k)))
    return VCoefficients(alpha=alpha, beta=beta, gamma=np.concatenate(([0.0], gamma)))


def random_model_and_data(rng, d=None, k=None, L=None, n_per_group=None):
    d = int(rng.integers(3, 9)) if d is None else d
    k = int(rng.integers(1, d)) if k is None else k
    L = int(rng.integers(1, 4)) if L is None else L
    sizes = n_per_group if n_per_group is not None else rng.integers(2, 9, size=L)
    model = FactorModel(rng.standard_normal((d, k)), rng.uniform(0.2, 3.0, size=L))
    data = GroupedData([rng.standard_normal((d, int(m))) for m in sizes])
    return model, data


def segment_edge_cases(rng):
    """Models and data at the edges of the stacked layout's segment sums:
    40 groups of 1-5 columns each, and a Gram-compressed group whose
    sample count exceeds its column count."""
    d, k = 4, 2
    many = GroupedData([rng.standard_normal((d, int(m))) for m in rng.integers(1, 6, size=40)])
    compressed = compress_gram(GroupedData([rng.standard_normal((d, 3)), rng.standard_normal((d, 25))]))
    assert compressed.blocks[1].shape[1] < compressed.group_sizes[1]
    return [
        (FactorModel(rng.standard_normal((d, k)), rng.uniform(0.2, 3.0, size=data.L)), data)
        for data in (many, compressed)
    ]


def grid_argmax(fn, lo, hi, num=100_000):
    """Brute-force maximizer over a uniform grid; independent oracle."""
    grid = np.linspace(lo, hi, num)
    vals = np.array([fn(v) for v in grid])
    i = int(np.argmax(vals))
    return float(grid[i]), float(vals[i])


def objective_on_grid(c, grid):
    """Vectorized re-statement of the univariate objective (independent oracle)."""
    t = c.gamma[:, None] + np.asarray(grid)[None, :]
    return -(c.alpha[:, None] * np.log(t) + c.beta[:, None] / t).sum(axis=0)


def derivative_on_grid(c, grid):
    t = c.gamma[:, None] + np.asarray(grid)[None, :]
    return (-c.alpha[:, None] / t + c.beta[:, None] / t**2).sum(axis=0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
