"""The family records: every dispatch site reads the one table."""

import json

import numpy as np
import pytest

from nonclass import analytic, cli, families, states
from nonclass.cli import StateSpec
from nonclass.errors import DomainError, SpecParseError

_SPECS = {
    "coherent": "coherent:re=0.8,im=-0.3+add=1",
    "svs": "svs:r=0.5,phi=0.4+add=2",
    "fock": "fock:n=2+add=1",
}
_CONSTRUCTORS = {
    "coherent": {"make_coherent"},
    "svs": {"make_squeezed_vacuum"},
    "fock": {"make_fock"},
}


def test_every_family_has_a_spec_here():
    assert set(_SPECS) == set(families.FAMILIES) == set(_CONSTRUCTORS)


@pytest.mark.parametrize("family", sorted(_SPECS))
def test_wrappers_by_module_attribute_see_every_call(monkeypatch, capsys, family):
    # a tracer wraps the constructors and the closed form by module
    # attribute; the records must call them through the module, not
    # through references taken at import
    seen = []

    def wrap(module, name):
        original = getattr(module, name)

        def traced(*args, **kwargs):
            seen.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, traced)

    for name in ("make_coherent", "make_squeezed_vacuum", "make_fock", "add_photons"):
        wrap(states, name)
    wrap(analytic, "reference_dq")
    assert cli.main(["dq", "--state", _SPECS[family], "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["state_spec"] == _SPECS[family]
    assert set(seen) == _CONSTRUCTORS[family] | {"reference_dq"}
    assert seen.count("reference_dq") == 1


def test_a_new_family_needs_only_a_record(monkeypatch, capsys):
    number = families.Family(
        "number",
        {"k": analytic._integer},
        lambda v, cutoff, p: states.make_fock(v["k"] + p, None if cutoff is None else cutoff + p),
        lambda v, p: (analytic._log_fock_fidelity(v["k"] + p), f"number(k={v['k'] + p})"),
    )
    monkeypatch.setitem(families.FAMILIES, "number", number)
    assert cli.main(["dq", "--state", "number:k=3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["state_spec"] == "number:k=3"
    assert report["analytic_source"] == "number(k=3)"
    assert report["analytic_dq"] == analytic.fock_nonclassicality(3).dq
    assert abs(report["dq_numeric"] - report["analytic_dq"]) <= 1e-9
    spec = cli.parse_state_spec("number:k=3+add=2")
    assert cli.render_state_spec(spec) == "number:k=3+add=2"
    assert analytic.reference_dq("number", {"k": 3}, 2)[1] == "number(k=5)"
    with pytest.raises(SpecParseError, match="expected an integer"):
        cli.parse_state_spec("number:k=3.5")
    with pytest.raises(DomainError, match="k must be an integer >= 0"):
        cli.parse_state_spec("number:k=-1")


def test_family_choices_are_the_sweep_names(capsys):
    names = tuple(f.sweep.name for f in families.FAMILIES.values() if f.sweep is not None)
    assert names == tuple(families.sweeps()) == ("pac", "pasv", "fock")
    argv = ["sweep", "--family", "bogus", "--x-min", "0", "--x-max", "1", "--out", "never.csv"]
    assert cli.main(argv) == 64
    assert f"(choose from {', '.join(map(repr, names))})" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("coherent:re=1e999,im=0", "re must be finite, got inf"),
    ("coherent:re=0,im=-1e999", "im must be finite, got -inf"),
    ("svs:r=1e999,phi=0", "r must be finite and >= 0, got inf"),
    ("svs:r=1,phi=1e999", "phi must be finite, got inf"),
    ("fock:n=-3", "n must be an integer >= 0, got -3"),
])
def test_parse_runs_each_value_through_its_check(text, message):
    with pytest.raises(DomainError, match=message):
        cli.parse_state_spec(text)


@pytest.mark.parametrize("call", [
    cli.build_state,
    cli.render_state_spec,
    lambda spec: analytic.reference_dq(spec.family, spec.params, spec.added_photons),
], ids=["build_state", "render_state_spec", "reference_dq"])
def test_a_family_with_no_record_is_a_domain_error(call):
    with pytest.raises(DomainError, match="unknown family 'thermal'"):
        call(StateSpec("thermal", {"nbar": 1.0}))


def test_number_states_are_built_as_the_photon_addition_pass_built_them(monkeypatch):
    # |n> with p photons added is |n+p>: the Fock record and the vacuum
    # branches build it with make_fock, never through the addition pass,
    # at the pass's cutoff and tail_bound and with its amplitudes, the lone
    # amplitude exactly 1 in both
    rng = np.random.default_rng(33)
    cases = []
    for _ in range(200):
        n, p = int(rng.integers(0, 31)), int(rng.integers(1, 301))
        cutoff = None if rng.random() < 0.5 else n + int(rng.integers(0, 20))
        cases.append((n, p, cutoff, StateSpec("fock", {"n": n}, p, cutoff)))
        cases.append((0, p, cutoff, StateSpec("coherent", {"re": 0.0, "im": 0.0}, p, cutoff)))
        cases.append((0, p, cutoff, StateSpec("svs", {"r": 0.0, "phi": 0.0}, p, cutoff)))
    passed = [(n, p, states.add_photons(states.make_fock(n, cutoff), p), spec)
              for n, p, cutoff, spec in cases]

    def refuse(*args):
        raise AssertionError("a number state went through the photon-addition pass")

    monkeypatch.setattr(states, "_log_addition_weights", refuse)
    for n, p, old, spec in passed:
        new = cli.build_state(spec)
        assert (new.cutoff, new.tail_bound) == (old.cutoff, old.tail_bound)
        assert new.amplitudes[n + p] == 1.0
        assert new.amplitudes.tobytes() == old.amplitudes.tobytes()
