"""Attributes built on their first read.

The one form of this in the program: an ``Application``'s ``table``
and ``phases``, and, from sources the batch engine attaches when a
run ends, a ``SocketResult``'s ``phases`` and a ``Controller``'s
``ticks``.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["built_on_read", "attach", "built_state"]

#: Instance-dict key of an object's attached sources, by attribute name.
_SOURCES = "_sources"


class built_on_read:
    """:func:`functools.cached_property` that also takes attached sources.

    The first read stores ``build(obj)`` in ``vars(obj)``, so later
    reads are a plain dict hit.  As a non-data descriptor it is
    shadowed by a value an assignment or a dataclass ``__init__``
    stores, so a dataclass field gets its descriptor after
    ``@dataclass``: in the class body it would become the field's
    default.  A source :func:`attach` left is built in place of
    ``build``.
    """

    def __init__(self, build: Callable[[Any], Any], name: str | None = None):
        self.build = build
        self.name = name or build.__name__
        self.__doc__ = build.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        d = obj.__dict__
        sources = d.get(_SOURCES)
        if sources is not None and self.name in sources:
            value = sources.pop(self.name)()
            if not sources:
                del d[_SOURCES]
        else:
            value = self.build(obj)
        d[self.name] = value
        return value


def attach(obj, name: str, source: Callable[[], Any]) -> None:
    """Build ``obj.<name>``, a :class:`built_on_read` attribute, from
    ``source()`` on its next read, dropping the value it holds now."""
    d = vars(obj)
    d.pop(name, None)
    d.setdefault(_SOURCES, {})[name] = source


def built_state(obj) -> dict:
    """``vars(obj)`` with every attached source built, as ``__getstate__``.

    A pickle then carries plain values, never a source (which may hold
    a whole batch's columns), and is the same bytes whether or not the
    attributes were read first.
    """
    for name in list(vars(obj).get(_SOURCES, ())):
        getattr(obj, name)
    return vars(obj)
