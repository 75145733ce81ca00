"""Bundled example models: a five-state model and its communication core.

Agent 1 cannot tell s, t, v and w apart; agent 2 cannot tell t, u and v
apart; p holds at t, v and w.  Resolving the pair {1,2} shrinks both
relations to their intersection, leaving t and v as the only non-trivial
block.  Both models are read from the JSON files that ship for the CLI.
"""

from __future__ import annotations

from importlib import resources

from .kripke import Model, load_model


def fig1() -> Model:
    return load_model(fixture_path("fig1.json"))


def fig1_core() -> Model:
    return load_model(fixture_path("core.json"))


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled model file, e.g. fixture_path("fig1.json")."""
    return str(resources.files(__package__).joinpath("data", name))
