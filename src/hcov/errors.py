"""Exception types shared across the package, and the one boundary of JSON
input: the reader of JSON files, which turns a file that cannot be read or
parsed into an error, the reader of a field, and the wrapper that names
the field of a nested group or graph."""

import json


class HcError(Exception):
    """Base class for domain errors (CLI maps these to exit code 1)."""


class GraphError(HcError):
    pass


class MorphismError(HcError):
    pass


class GroupError(HcError):
    pass


class ActionError(HcError):
    pass


class CoverError(HcError):
    pass


class CatalogError(HcError):
    pass


def read_json(path):
    """The JSON document in a file; HcError if it cannot be read or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise HcError(f"cannot read JSON from {path}: {exc}") from None


_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def read_field(error, what, data, path, kind=None, at=None):
    """The value at a dotted path of object keys in JSON data, of type kind
    when kind is given. Otherwise error('<what>: missing field <path>') or
    error('<what>: <path> must be <kind>, got <value>'), the path shown
    after the prefix at. A list never stands in for an object: no key is
    read as a list position."""
    shown = path if at is None else f"{at}.{path}"
    value = data
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise error(f"{what}: missing field {shown!r}")
        value = value[key]
    if kind is not None and type(value) is not kind:
        raise error(f"{what}: {shown!r} must be {_KINDS[kind]}, got {value!r}")
    return value


def read_nested(error, what, path, fn, *args):
    """fn(*args), the reader of the group or graph at path inside a larger
    input; its GroupError or GraphError is raised again as error, prefixed
    with what and path."""
    try:
        return fn(*args)
    except (GroupError, GraphError) as exc:
        raise error(f"{what}: {path}: {exc}") from None
