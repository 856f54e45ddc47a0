"""Exception hierarchy. Everything raised on purpose derives from NoagaError."""


def clip_repr(value) -> str:
    """repr(value), cut to 80 characters plus '…' when longer, so that a
    message never echoes a whole input value, however long or deep."""
    try:
        text = repr(value)
    except (RecursionError, ValueError):  # too deep, or an int past the digit limit
        return "<a value too large to show>"
    return text if len(text) <= 80 else text[:80] + "…"


class NoagaError(Exception):
    """Base class for all library errors."""


class ConfigInvalid(NoagaError):
    """A configuration value is out of range or inconsistent."""


class UnknownNode(NoagaError):
    """A node id or label does not exist in the snapshot or view."""


class UnknownEdge(NoagaError):
    """An edge pair does not exist in the snapshot."""


class DuplicateNode(NoagaError):
    """AddNode names a node that already exists."""


class DuplicateEdge(NoagaError):
    """AddEdge names a pair that already exists."""


class ForeignEdge(NoagaError):
    """An edge pair is not active in the view it was used against."""


class UnrepairedChromosome(NoagaError):
    """A chromosome is not in its encoding's canonical form."""


class EmptyCluster(NoagaError):
    """A cluster with no members where at least one is required."""


class EmptyPartition(NoagaError):
    """A partition with no clusters where at least one is required."""


class StaleSnapshot(NoagaError):
    """A partition was evaluated against a view of a different snapshot version."""


def check_version(what: str, version: int, current: int) -> None:
    """The one stale check: StaleSnapshot unless `version` is `current`."""
    if version != current:
        raise StaleSnapshot(f"{what} is from snapshot version {version}, expected {current}")


def check_int(name: str, value) -> None:
    """The one integer check: ConfigInvalid unless `value` is an int and
    not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigInvalid(f"{name} must be an integer, got {clip_repr(value)}")


class TooLarge(NoagaError):
    """Exhaustive enumeration was asked for more nodes than its cap allows."""


class Exhausted(NoagaError):
    """The evaluation budget cannot afford another GA step."""


class ParseError(NoagaError):
    """An input file is malformed. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EventError(NoagaError):
    """An update event could not be applied. Carries the event tick."""

    def __init__(self, tick: int, message: str):
        super().__init__(f"event at tick {tick}: {message}")
        self.tick = tick
