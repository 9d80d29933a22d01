"""The quoting rule of every CSV table the program writes."""

_SPECIALS = frozenset(',"\r\n')


def csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, quotes doubled, if it holds , " \\r or \\n.

    ``csv.writer(..., lineterminator="\\n")`` leaves a bare \\r unquoted, and
    a reader then splits the row there.
    """
    return text if _SPECIALS.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def csv_row(fields) -> str:
    """One CSV line of ``str(field)`` for each field, ending in \\n."""
    return ",".join(map(csv_field, map(str, fields))) + "\n"
