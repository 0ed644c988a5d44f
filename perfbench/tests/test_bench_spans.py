import pytest

import spans


def test_self_time_subtracts_direct_children_only():
    # root 0..10 holds a 1..4 and b 5..9; a holds c 2..3; b holds d 6..8
    names = ["root", "a", "c", "b", "d"]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 8.0]
    parents = [-1, 0, 1, 0, 3]
    own = spans.self_times(starts, ends, parents)
    assert list(own) == pytest.approx([3.0, 2.0, 1.0, 2.0, 2.0])
    # self times partition the root's interval
    assert sum(own) == pytest.approx(10.0)


def test_layer_metrics_from_a_synthetic_tree():
    # one call: main -> state_sum -> 2 x weight -> mul; plus one inverse
    # factorial that had to invert and one served from its cache
    names = ["cli.main", "state_sum", "weight", "mul", "weight", "mul",
             "inv_factorial", "invert", "inv_factorial"]
    starts = [0.0, 1.0, 2.0, 2.5, 4.0, 4.5, 6.0, 6.5, 8.0]
    ends = [10.0, 8.0, 3.0, 2.75, 5.0, 4.75, 7.5, 7.0, 8.5]
    parents = [-1, 0, 1, 2, 1, 4, 1, 6, 1]
    counters = {"mul.coeff_products": 32, "enumerate.nodes": 8,
                "enumerate.admissible": 2}
    got = spans.layer_metrics(names, starts, ends, parents, counters)
    assert got["cli.self_s"] == pytest.approx(3.0)
    assert got["colourings.sum_self_s"] == pytest.approx(7.0 - 2.0 - 1.5
                                                         - 0.5)
    assert got["colourings.weight_self_s"] == pytest.approx(1.5)
    assert got["colourings.weight_calls"] == 2
    assert got["cyclotomic.mul_calls"] == 2
    assert got["cyclotomic.mul_s"] == pytest.approx(0.5)
    assert got["cyclotomic.mul_coeff_products"] == 32
    assert got["cyclotomic.inv_factorial_calls"] == 2
    assert got["cyclotomic.inv_factorial_hit_ratio"] == pytest.approx(0.5)
    assert got["cyclotomic.invert_s"] == pytest.approx(0.5)
    assert got["colourings.yield"] == pytest.approx(0.25)
    # layers that did not run read as zero, not as an error
    assert got["census.yield"] == 0.0
    assert got["triangulation.skeleton_calls"] == 0
    assert set(got) == set(spans.LAYER_METRICS)


def test_recorder_nests_spans_and_wraps_generators():
    rec = spans.Recorder()

    def leaf(x):
        return x + 1

    def gen(n):
        for i in range(n):
            yield wrapped_leaf(i)

    wrapped_leaf = spans._wrap(rec, "skeleton", leaf)
    wrapped_gen = spans._wrap_generator(rec, "census.search", gen)
    outer = spans._wrap(rec, "cli.main", lambda: list(wrapped_gen(2)))
    assert outer() == [1, 2]
    names, starts, ends, parents = rec.columns()
    # main, then per resumption a search span holding its leaf, plus the
    # final resumption that ends the generator
    assert names == ["cli.main", "census.search", "skeleton",
                     "census.search", "skeleton", "census.search"]
    assert list(parents) == [-1, 0, 1, 0, 3, 0]
    assert all(e >= s for s, e in zip(starts, ends))
    assert rec.counters["census.emitted"] == 2
    metrics = spans.layer_metrics(names, starts, ends, parents,
                                  rec.counters)
    assert metrics["census.yield"] == pytest.approx(1.0)
