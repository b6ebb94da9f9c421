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

_TAG = "tag:yaml.org,2002:"
_STR, _INT, _FLOAT, _BOOL, _NULL, _SEQ, _MAP = (
    _TAG + t for t in ("str", "int", "float", "bool", "null", "seq", "map"))


class _NotPlain(Exception):
    """A node outside the plain subset that _PlainLoader builds itself."""


class _PlainLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """yaml.SafeLoader's objects through libyaml's parser, with fewer Python
    calls per node.

    resolve() resolves each distinct (node kind, scalar value, implicit)
    once per document.  construct_document() builds a document of plain
    nodes (str, int, float, bool and null scalars, sequences, mappings with
    scalar keys) in one recursive walk that keeps one object per node, so
    aliases come back as the same object.  Any other node (merge keys,
    timestamps, !!binary, !!set, !!omap, local tags), a list or dict key
    (unhashable), and any error hand the untouched document to
    SafeConstructor, which builds or raises as yaml.SafeLoader would.  No
    state outlives the loader, which yaml.load makes for one call.
    """

    def __init__(self, stream):
        super().__init__(stream)
        self._tags = {}

    def resolve(self, kind, value, implicit):
        key = kind, value, implicit
        tag = self._tags.get(key)
        if tag is None:
            tag = self._tags[key] = super().resolve(kind, value, implicit)
        return tag

    def construct_document(self, node):
        try:
            return self._build_plain(node)
        except Exception:  # _NotPlain, or an error SafeConstructor raises in its own order
            return super().construct_document(node)

    def _build_plain(self, root):
        built = {}  # node -> its object
        bool_values = self.bool_values
        construct_int, construct_float = self.construct_yaml_int, self.construct_yaml_float
        scalar_node, sequence_node, mapping_node = (
            yaml.ScalarNode, yaml.SequenceNode, yaml.MappingNode)

        # int() and float() read a scalar's text as the constructors do, an
        # "_" between digits included, or raise ValueError; the exceptions
        # are text the constructors read as 0b, 0x or octal, and "-nan",
        # whose sign float() keeps and the constructor drops
        def build(node):
            if node in built:  # an alias, or a collection that holds itself
                return built[node]
            tag, kind = node.tag, type(node)
            if kind is scalar_node:
                value = node.value
                if tag == _STR:
                    data = value
                elif tag == _FLOAT:
                    try:
                        if "n" in value or "N" in value:
                            raise ValueError
                        data = float(value)
                    except ValueError:
                        data = construct_float(node)
                elif tag == _INT:
                    try:
                        if value.lstrip("+-").startswith("0"):
                            raise ValueError
                        data = int(value)
                    except ValueError:
                        data = construct_int(node)
                elif tag == _BOOL:
                    data = bool_values[value.lower()]
                elif tag == _NULL:
                    data = None
                else:
                    raise _NotPlain
                built[node] = data
            elif kind is sequence_node and tag == _SEQ:
                data = built[node] = []
                data.extend([build(item) for item in node.value])
            elif kind is mapping_node and tag == _MAP:
                data = built[node] = {}
                for key_node, value_node in node.value:
                    data[build(key_node)] = build(value_node)
            else:
                raise _NotPlain
            return data

        try:
            return build(root)
        finally:
            # build's cell refers to build: empty it, so that build, built and
            # the nodes go now, not at the next cyclic garbage collection
            del build


def parse_yaml(text: str):
    """yaml.load(text, Loader=yaml.SafeLoader): the same objects, and the
    same exception and message on bad text.

    It parses through _PlainLoader.  On a YAMLError it reparses with
    yaml.SafeLoader, whose messages name the alias or character at fault and
    quote the line; libyaml's do neither.
    """
    try:
        return yaml.load(text, Loader=_PlainLoader)
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
