"""YAML text I/O: PyYAML's safe loader and dumper, and the direct codec.

parse_yaml and dump_yaml are yaml.load(text, Loader=yaml.SafeLoader) and
yaml.safe_dump(data, sort_keys=False), through libyaml where PyYAML was
built with it.  Every YAML input and output goes through them but for the
two schemas the program writes and reads back, device files
(device.serialize_device) and results files (cli.result_to_dict), which
take a direct codec.

A schema's emitter writes yaml.safe_dump(data, sort_keys=False)'s text from
one %-template per entry, with yaml_floats for SafeRepresenter's float
text.  Its domain is the dicts its producer builds, so it checks only what
parse_with needs: it raises NotCanonical on a role or strategy outside its
enum, an empty qubit list, or a value that is not a float where a float
belongs.  Its reader reads an entry's values off one anchored regex made
from that template (entry_pattern).  parse_with keeps a reader's dict only
if the emitter rebuilds the input from it byte for byte, and otherwise, or
on a ValueError, hands the text to parse_yaml, whose objects and errors it
then is.  This is exact: the emitter is safe_dump on the reader's dicts,
and safe_dump's text of such a dict loads back to it, so an accepted text
loads to what yaml.SafeLoader returns.
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
    """Data a direct emitter does not write: parse_with then takes the
    PyYAML route."""


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


def entry_pattern(template: str, value: str = r"(\S+)") -> str:
    """A regex of template's text with each %s read as value."""
    return re.escape(template).replace("%s", value)


def parse_with(read, emit, text: str):
    """read(text) where emit writes that back as text byte for byte, else
    parse_yaml(text), whose objects and errors it then is.

    read returns None, or raises ValueError, on text it cannot read.
    """
    try:
        data = read(text)
        if data is not None and emit(data) == text:
            return data
    except ValueError:
        pass
    return parse_yaml(text)
