"""The text formats the program reads and writes: numbers, CSV rows, ``key = value`` lines."""

# A float written with 17 significant digits reads back as the same double.
NUMBER = "%.17g"

_SPECIALS = frozenset(',"\r\n')


def csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, quotes doubled, if it holds , " \\r or \\n.

    ``csv.writer(..., lineterminator="\\n")`` leaves a bare \\r unquoted, and
    a reader then splits the row there.
    """
    return text if _SPECIALS.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def _text(field) -> str:
    return NUMBER % field if isinstance(field, float) else str(field)


def csv_row(fields) -> str:
    """One CSV line, ending in \\n, of ``fields``.

    A float (numpy float64 included) is written as ``NUMBER``, any other
    field as ``str``.
    """
    return ",".join(map(csv_field, map(_text, fields))) + "\n"


def key_values(text: str, where: str):
    """Yield ``(line_no, key, value)`` for each ``key = value`` line of ``text``.

    ``#`` starts a comment anywhere on a line, and blank lines are skipped.
    Raises ValueError, prefixed ``"{where} {line_no}"``, at a line without
    ``=`` or with a key seen before.
    """
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"{where} {line_no}: expected 'key = value'")
        if key in seen:
            raise ValueError(f"{where} {line_no}: duplicate key {key!r}")
        seen.add(key)
        yield line_no, key, value.strip()
