"""Benchmark generator output: determinism, structure, and countability."""

import pytest

from pbtally import (CounterConfig, brute_count, count_models, gen_auction,
                     gen_knapsack, gen_sensor, parse_opb)

#: the search alone, and the default, which counts small components by enumeration
CONFIGS = (CounterConfig(leaf_cells=0), CounterConfig())


def body_lines(text):
    return [l for l in text.strip().split("\n") if not l.startswith("*")]


def split_line(line):
    """One OPB line as (coeff_var_pairs, op, degree)."""
    tokens = line.split()
    assert tokens[-1] == ";"
    pairs = []
    i = 0
    while tokens[i] not in (">=", "<=", "="):
        coeff = int(tokens[i])
        assert tokens[i + 1].startswith("x")
        pairs.append((coeff, int(tokens[i + 1][1:])))
        i += 2
    return pairs, tokens[i], int(tokens[i + 1])


class TestDeterminism:
    def test_same_arguments_same_bytes(self):
        for make in (
            lambda s: gen_knapsack(items=9, dims=2, seed=s),
            lambda s: gen_auction(bids=8, items=6, seed=s),
            lambda s: gen_sensor(sensors=7, targets=9, seed=s),
            lambda s: gen_sensor(sensors=7, targets=9, cost_aware=True, seed=s),
        ):
            assert make(3) == make(3)
            assert make(3) != make(4)

    def test_all_outputs_parse(self):
        for seed in range(6):
            for text, n in (
                (gen_knapsack(items=9, dims=3, seed=seed), 9),
                (gen_auction(bids=8, items=6, seed=seed), 8),
                (gen_sensor(sensors=7, targets=9, seed=seed), 7),
                (gen_sensor(sensors=7, targets=9, cost_aware=True,
                            seed=seed), 7),
            ):
                f = parse_opb(text)
                assert f.num_vars == n


class TestHeaders:
    def test_declared_counts_match_content(self):
        for text in (
            gen_knapsack(items=9, dims=3, seed=1),
            gen_auction(bids=8, items=6, seed=1),
            gen_sensor(sensors=7, targets=9, seed=1),
        ):
            first, second = text.split("\n")[:2]
            assert first.startswith("* #variable= ")
            parts = first.split()
            declared_cstrs = int(parts[4])
            assert len(body_lines(text)) == declared_cstrs
            assert second.startswith("* generator: ")
            assert "seed=" in second


class TestKnapsack:
    def test_structure(self):
        items, dims, max_coeff, frac = 11, 3, 7, 0.4
        text = gen_knapsack(items=items, dims=dims, max_coeff=max_coeff,
                            capacity_fraction=frac, seed=2)
        lines = body_lines(text)
        assert len(lines) == dims
        for line in lines:
            pairs, op, degree = split_line(line)
            assert op == "<="
            assert [v for _, v in pairs] == list(range(1, items + 1))
            assert all(1 <= c <= max_coeff for c, _ in pairs)
            assert degree == int(frac * sum(c for c, _ in pairs))

    def test_count_matches_oracle(self):
        f = parse_opb(gen_knapsack(items=12, dims=2, max_coeff=9,
                                   capacity_fraction=0.5, seed=5))
        for cfg in CONFIGS:
            assert count_models(f, cfg).count == brute_count(f).count

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_knapsack(items=0)
        with pytest.raises(ValueError):
            gen_knapsack(dims=0)
        with pytest.raises(ValueError):
            gen_knapsack(max_coeff=0)
        with pytest.raises(ValueError):
            gen_knapsack(capacity_fraction=0.0)
        with pytest.raises(ValueError):
            gen_knapsack(capacity_fraction=1.5)


class TestAuction:
    def test_structure(self):
        bids, items, max_price = 12, 8, 20
        text = gen_auction(bids=bids, items=items, max_price=max_price,
                           seed=3)
        lines = body_lines(text)
        assert len(lines) >= 1
        for line in lines[:-1]:
            pairs, op, degree = split_line(line)
            assert op == "<=" and degree == 1
            assert all(c == 1 for c, _ in pairs)
            # an exclusivity line only exists for contested items
            assert len(pairs) >= 2
            assert all(1 <= v <= bids for _, v in pairs)
        assert len(lines) - 1 <= items
        pairs, op, degree = split_line(lines[-1])
        assert op == ">="
        assert [v for _, v in pairs] == list(range(1, bids + 1))
        assert all(1 <= c <= max_price for c, _ in pairs)
        assert degree >= 1

    def test_count_matches_oracle(self):
        f = parse_opb(gen_auction(bids=10, items=7, seed=4))
        for cfg in CONFIGS:
            assert count_models(f, cfg).count == brute_count(f).count

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_auction(bids=0)
        with pytest.raises(ValueError):
            gen_auction(max_bundle=0)
        with pytest.raises(ValueError):
            gen_auction(items=4, max_bundle=5)
        with pytest.raises(ValueError):
            gen_auction(revenue_fraction=0.0)


class TestSensor:
    def test_plain_structure(self):
        sensors, targets, max_cover = 9, 11, 4
        text = gen_sensor(sensors=sensors, targets=targets,
                          max_cover=max_cover, seed=6)
        lines = body_lines(text)
        assert len(lines) == targets + 1
        for line in lines[:-1]:
            pairs, op, degree = split_line(line)
            assert op == ">=" and degree == 1
            assert all(c == 1 for c, _ in pairs)
            vs = [v for _, v in pairs]
            assert vs == sorted(set(vs))
            assert 1 <= len(vs) <= max_cover
        pairs, op, budget = split_line(lines[-1])
        assert op == "<="
        assert all(c == 1 for c, _ in pairs)
        assert [v for _, v in pairs] == list(range(1, sensors + 1))
        assert budget == max(2, int(0.5 * sensors))
        assert budget >= 2

    def test_cost_aware_structure(self):
        text = gen_sensor(sensors=9, targets=10, max_cover=4,
                          cost_aware=True, max_cost=6,
                          redundancy_rate=1.0, seed=7)
        lines = body_lines(text)
        for line in lines[:-1]:
            pairs, op, degree = split_line(line)
            # every target was promoted to double coverage
            assert op == ">=" and degree == 2
            assert len(pairs) >= 2
        pairs, op, budget = split_line(lines[-1])
        assert op == "<="
        assert all(1 <= c <= 6 for c, _ in pairs)
        assert any(c > 1 for c, _ in pairs)

    def test_redundancy_rate_zero_keeps_single_coverage(self):
        text = gen_sensor(sensors=8, targets=9, cost_aware=True,
                          redundancy_rate=0.0, seed=8)
        for line in body_lines(text)[:-1]:
            _, op, degree = split_line(line)
            assert op == ">=" and degree == 1

    def test_count_matches_oracle(self):
        for kwargs in (dict(), dict(cost_aware=True)):
            f = parse_opb(gen_sensor(sensors=9, targets=10, seed=9, **kwargs))
            for cfg in CONFIGS:
                assert count_models(f, cfg).count == brute_count(f).count

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_sensor(sensors=0)
        with pytest.raises(ValueError):
            gen_sensor(max_cover=0)
        with pytest.raises(ValueError):
            gen_sensor(sensors=4, max_cover=5)
        with pytest.raises(ValueError):
            gen_sensor(budget_fraction=0.0)
