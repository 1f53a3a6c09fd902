"""Prompt template loading and rendering.

Templates are plain text files carrying ``<<VARIABLE: name>>``
placeholders (a trailing ``(JSON)`` marker on the name is
documentation only). Substitution is literal: paper text and JSON
payloads are inserted as-is, with no escaping.

The three extraction-stage templates are normative; ``ranking.txt``
is a non-normative default for the evaluation harness and may be
replaced freely.
"""
from __future__ import annotations

import re
from pathlib import Path

PROMPTS_DIR = Path(__file__).parent / "prompts"

CONTRIBUTION_TEMPLATE = "contribution_extraction.txt"
PREREQUISITE_TEMPLATE = "prerequisite_extraction.txt"
ALIGNMENT_TEMPLATE = "alignment.txt"
RANKING_TEMPLATE = "ranking.txt"

_PLACEHOLDER_RE = re.compile(r"<<VARIABLE:\s*([^>]+?)\s*>>")


def load_template(name: str) -> str:
    return (PROMPTS_DIR / name).read_text(encoding="utf-8")


def render(template: str, variables: dict[str, str]) -> str:
    """Substitute every placeholder; unknown placeholders are an error."""

    def _sub(match: re.Match) -> str:
        name = match.group(1)
        if name.endswith("(JSON)"):
            name = name[: -len("(JSON)")].strip()
        if name not in variables:
            raise KeyError(f"template placeholder {name!r} has no value")
        return variables[name]

    return _PLACEHOLDER_RE.sub(_sub, template)
