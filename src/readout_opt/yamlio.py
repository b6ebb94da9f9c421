"""YAML text I/O: PyYAML's safe loader and dumper, and the direct codec.

parse_yaml and dump_yaml are yaml.load(text, Loader=yaml.SafeLoader) and
yaml.safe_dump(data, sort_keys=False), through libyaml where PyYAML was
built with it.  Every YAML input and output goes through them but for the
two schemas the program writes and reads back, device files
(device.serialize_device) and results files (cli.result_to_dict), which
take a direct codec.

A schema's emitter writes yaml.safe_dump(data, sort_keys=False)'s text from
one %-template per entry, with yaml_floats for SafeRepresenter's float
text.  Its domain is the dicts its producer builds: it raises NotCanonical
on a role or strategy outside its enum, an empty qubit list, or a value
that is not a float where a float belongs.

Its reader matches each entry with one anchored regex made from that
template (entry_pattern), whose k-th slot is a group of that slot's
grammar: an INT, a FLOAT, or a value of the slot's enum (one_of: role,
strategy).
So it accepts a text only if the text is the schema's templates, with at
least one entry (safe_dump writes an empty list as []), and each token is
of its slot's grammar: each token ends at a newline, which no grammar
matches, so a group of grammar G matches it exactly where G fullmatches
it.  A plain scalar of those forms resolves to the slot's type, and
SafeConstructor reads it as int(token) or float(token), so an accepted
text loads to the objects yaml.SafeLoader returns.  On any other text,
hand-edited files with a comment, CRLF line ends or keys in another order
included, the reader returns None, and parse_with hands the text to
parse_yaml, whose objects and errors it then is.
"""
from __future__ import annotations

import re

import yaml

#: libyaml's parser where PyYAML was built with it, with PyYAML's own
#: SafeConstructor: the objects of yaml.SafeLoader
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_yaml(text: str):
    """yaml.load(text, Loader=yaml.SafeLoader): the same objects, and the
    same exception and message on bad text.

    It parses through libyaml where it is available.  On a YAMLError it
    reparses with yaml.SafeLoader, whose messages name the alias or
    character at fault and quote the line; libyaml's do neither.
    """
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError:
        return yaml.load(text, Loader=yaml.SafeLoader)


#: libyaml's emitter where PyYAML was built with it: the text of
#: yaml.safe_dump, several times faster
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def dump_yaml(data) -> str:
    """yaml.safe_dump(data, sort_keys=False) through libyaml's emitter when
    it is available."""
    return yaml.dump(data, Dumper=_YAML_DUMPER, sort_keys=False)


class NotCanonical(ValueError):
    """Data a direct emitter cannot write as yaml.safe_dump does."""


#: yaml.SafeRepresenter.represent_float's text where repr has no "."
_SPECIAL_FLOATS = {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}


def yaml_floats(values) -> list[str]:
    """yaml.safe_dump's text of each value; NotCanonical unless each is a
    float (not a subclass: safe_dump cannot write numpy's)."""
    if any(type(v) is not float for v in values):
        raise NotCanonical
    # repr(x).lower(), with "e" made ".0e" where there is no "."
    return [text if "." in text else _SPECIAL_FLOATS.get(text) or text.replace("e", ".0e", 1)
            for text in map(repr, values)]


#: PyYAML's first YAML 1.1 float form without "_": SafeConstructor reads
#: such a token as sign * float(unsigned token), which is float(token),
#: -0.0 included
FLOAT = r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?"
#: the decimal ints SafeConstructor reads as int(token), of at most 19
#: digits: int() refuses a token longer than sys.get_int_max_str_digits(),
#: which is never below 640
INT = r"-?(?:0|[1-9][0-9]{0,18})"


def one_of(values) -> str:
    """The grammar of a slot whose token is one of values (an enum's)."""
    return "|".join(sorted(values))


def entry_pattern(template: str, *grammars: str) -> str:
    """A regex of template's text with its k-th %s a group of grammars[k]."""
    return re.escape(template) % tuple(f"({grammar})" for grammar in grammars)


def entry_groups(entry_re: re.Pattern, text: str, pos: int) -> list[tuple] | None:
    """The groups of each match of entry_re in turn from pos, where the
    matches cover the rest of text; else None."""
    entries = []
    while pos < len(text):
        m = entry_re.match(text, pos)
        if m is None:
            return None
        entries.append(m.groups())
        pos = m.end()
    return entries


def parse_with(read, text: str):
    """read(text), or parse_yaml(text), whose objects and errors it then
    is, where read returns None."""
    data = read(text)
    return parse_yaml(text) if data is None else data
