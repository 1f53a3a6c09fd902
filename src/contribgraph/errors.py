"""Exception types shared across the toolkit."""
from __future__ import annotations


class ContribGraphError(Exception):
    """Base class for all toolkit errors."""


class RecordValidationError(ContribGraphError):
    """An extraction record failed schema validation.

    Carries the list of individual problems so callers (and retry
    prompts) can report all of them at once.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class MalformedLineError(ContribGraphError):
    """A JSONL line is not UTF-8 JSON, such as the torn tail of a log
    after a crash mid-append; the message names ``path:line``."""


class DuplicatePaperError(ContribGraphError):
    """A record's corpus_id is already extracted in the store."""


class UnknownIdError(ContribGraphError, KeyError):
    """A contribution or paper id does not exist in the store."""


class ParseFailure(ContribGraphError):
    """No parseable JSON was found in a backend response.

    The raw response text is kept for retry logic and diagnostics.
    """

    def __init__(self, message: str, raw_text: str):
        self.raw_text = raw_text
        super().__init__(message)


class BackendError(ContribGraphError):
    """Transport-level or configuration failure of a generation backend."""


class StageFailure(ContribGraphError):
    """A pipeline stage exhausted its retries for one paper."""

    def __init__(self, corpus_id: str, stage: str, message: str):
        self.corpus_id = corpus_id
        self.stage = stage
        super().__init__(f"paper {corpus_id}, stage {stage}: {message}")
