"""A Derivation is its packed images: text off the keys, and no Poly view
on the command path.

RewriteEngine.format writes a polynomial {key: coefficient} in the text
of poly_format, and every report prints images and kernel polynomials
through it. The Poly view of a Derivation (Derivation.images, built by
RewriteEngine.poly) is left to the references, so no command that
classifies, searches or verifies a well-defined derivation builds one.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trilnd.cli import main
from trilnd.classify import enumerate_lnds
from trilnd.corpus import corpus, rescaled_members
from trilnd.derivation import Derivation, derivation_to_text
from trilnd.gaussian import GaussianRational
from trilnd.poly import RewriteEngine, pack, poly_format
from trilnd.presentation import TrinomialPresentation

SAMPLES = sorted((Path(__file__).resolve().parents[1] / "sample_inputs").glob("*.json"))
ENGINES = (*corpus(), *rescaled_members())


@st.composite
def dense_polys(draw):
    """(P, terms, scale): a dense polynomial over P's generators, of up to
    five terms, the constant key among the candidates, with pure real,
    pure imaginary and mixed coefficients, and a scale that makes some of
    them fractional."""
    P = draw(st.sampled_from(ENGINES))
    exponents = st.lists(st.integers(0, 3), min_size=len(P.generators), max_size=len(P.generators))
    keys = st.one_of(st.just(0), exponents.map(lambda e: pack(zip(P.generators, e), P.generator_index)))
    parts = st.integers(-7, 7)
    coefficient = st.one_of(
        parts.map(lambda a: (a, 0)), parts.map(lambda b: (0, b)), st.tuples(parts, parts)
    ).filter(lambda c: c[0] or c[1])
    terms = draw(st.dictionaries(keys, coefficient, max_size=5))
    return P, terms, draw(st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(dense_polys())
def test_the_key_formatter_writes_what_poly_format_writes(case):
    P, terms, scale = case
    exact = {key: GaussianRational._of(a, b, scale) for key, (a, b) in terms.items()}
    assert P.engine.format(exact) == poly_format(P.engine.poly(terms, scale))


def test_the_formatter_cases_are_drawn():
    # a constant, a mixed and a fractional coefficient, several terms
    P = corpus()[0]
    key = pack(((P.generators[0], 2),), P.generator_index)
    terms = {0: (3, 2), key: (-1, 0), key + pack(((P.generators[-1], 1),), P.generator_index): (0, 5)}
    text = P.engine.format({k: GaussianRational._of(a, b, 2) for k, (a, b) in terms.items()})
    assert text == poly_format(P.engine.poly(terms, 2))
    assert text == "5/2i*T2_1*T1_1^2 - 1/2*T1_1^2 + (3/2+i)"


@pytest.fixture
def poly_views(monkeypatch):
    """The Poly views built while it is active: RewriteEngine.poly calls and
    reads of Derivation.images that build one."""
    built = []
    poly, images = RewriteEngine.poly, Derivation.images.fget

    def counted_poly(engine, terms, scale):
        built.append("RewriteEngine.poly")
        return poly(engine, terms, scale)

    def counted_images(delta):
        if delta._images is None:
            built.append("Derivation.images")
        return images(delta)

    monkeypatch.setattr(RewriteEngine, "poly", counted_poly)
    monkeypatch.setattr(Derivation, "images", property(counted_images))
    return built


def test_the_spies_see_a_poly_view_built(poly_views):
    P = corpus()[0]
    delta = enumerate_lnds(P, expand=False)[0].derivation
    delta.images
    assert poly_views[0] == "Derivation.images"
    assert poly_views[1:] == ["RewriteEngine.poly"] * len(delta.packed()[0])


@pytest.mark.parametrize("path", SAMPLES, ids=lambda path: path.name)
def test_no_command_builds_a_poly_view(path, tmp_path, capsys, poly_views):
    P = TrinomialPresentation.from_json(path.read_text())
    commands = [
        ["analyze"],
        ["analyze", "--expand"],
        ["lnds"],
        ["lnds", "--expand"],
        ["oracle"],
    ]
    for k, inst in enumerate(enumerate_lnds(P)):
        if inst.derivation is not None:
            text = tmp_path / f"delta{k}.txt"
            text.write_text(derivation_to_text(inst.derivation))
            commands.append(["verify", "--derivation", str(text)])
    assert poly_views == []
    for command in commands:
        code = main([*command, "--presentation", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and "error" not in report, command
        if command[0] == "verify":
            assert report["well_defined"] and report["verified"], command
        assert poly_views == [], command
