"""Aggregating span tracer for the benchmark's traced run.

Spans are recorded from outside the program: :func:`install` replaces a
layer's public function, at the name its callers resolve, with a wrapper
that opens a span around the call.  Spans are kept in memory as a call
tree aggregated by path (same name under the same parent path = one
node carrying a call count and a total duration), and written out as
JSON when the process is done.  A node's *self* time is its total minus
the totals of its children, so every tree is additive by construction
and a negative self time exposes overlapping spans.

Generator functions are wrapped so that each ``next()`` is one span
segment, attributed to whatever span is open when the caller resumes it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

clock = time.perf_counter


class Node:
    """One aggregated span: every call of ``name`` under one parent path."""

    __slots__ = ("name", "count", "total", "items", "hits", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Calls (or generator resumptions).
        self.count = 0
        #: Summed wall time of those calls, children included.
        self.total = 0.0
        #: Items yielded (generator spans only).
        self.items = 0
        #: Calls whose result matched the span's result predicate.
        self.hits = 0
        self.children: dict[str, Node] = {}

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total,
            "items": self.items,
            "hits": self.hits,
            "children": [child.to_json() for child in self.children.values()],
        }


class SpanTree:
    """The span tree of one process plus side facts captured at layer
    boundaries (``extra``)."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.root = Node(role)
        self.stack = [self.root]
        self.extra: dict = {}
        #: Wrap points that could not be resolved (renamed or removed code).
        self.missing: list[str] = []

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped so that each call is a span named ``name``.
        ``on_result(node, result)`` runs after a call that returned."""
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            node = stack[-1].child(name)
            stack.append(node)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.total += clock() - started
                node.count += 1
                stack.pop()
            if on_result is not None:
                on_result(node, result)
            return result

        return wrapper

    def generator_span(self, name: str, fn, on_item=None):
        """``fn`` (a generator function) wrapped so that every resumption
        of the returned iterator is a span segment named ``name``.
        ``on_item(node, item)`` runs for each item yielded."""
        tree = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TracedIterator(tree, name, iter(fn(*args, **kwargs)), on_item)

        return wrapper

    def dump(self, path: str) -> None:
        document = {
            "role": self.role,
            "pid": os.getpid(),
            "root": self.root.to_json(),
            "extra": self.extra,
            "missing": self.missing,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(tmp, path)


class _TracedIterator:
    __slots__ = ("tree", "name", "inner", "on_item")

    def __init__(self, tree: SpanTree, name: str, inner, on_item=None) -> None:
        self.tree = tree
        self.name = name
        self.inner = inner
        self.on_item = on_item

    def __iter__(self):
        return self

    def __next__(self):
        stack = self.tree.stack
        node = stack[-1].child(self.name)
        stack.append(node)
        started = clock()
        try:
            item = next(self.inner)
        finally:
            node.total += clock() - started
            node.count += 1
            stack.pop()
        node.items += 1
        if self.on_item is not None:
            self.on_item(node, item)
        return item


def resolve(target: str):
    """``"pkg.module:Attr.attr"`` -> (owner object, attribute name)."""
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    getattr(owner, attr)  # raises AttributeError when the name is gone
    return owner, attr


def install(tree: SpanTree, wrap_points) -> None:
    """Apply ``(target, span name, kind, hook)`` wrap points.  Kind
    ``"call"`` spans each call (``hook(node, result)`` after it returns),
    ``"gen"`` spans each resumption of the returned iterator
    (``hook(node, item)`` per item).  Unresolvable targets are recorded in
    ``tree.missing`` instead of failing the run."""
    for target, name, kind, hook in wrap_points:
        try:
            owner, attr = resolve(target)
        except (ImportError, AttributeError):
            tree.missing.append(target)
            continue
        original = getattr(owner, attr)
        if kind == "gen":
            wrapped = tree.generator_span(name, original, hook)
        else:
            wrapped = tree.span(name, original, hook)
        setattr(owner, attr, wrapped)


def self_time(node: dict) -> float:
    """A serialized node's total minus its children's totals."""
    return node["total_s"] - sum(child["total_s"] for child in node["children"])


def walk(node: dict, ancestors: tuple = ()):
    """Yield ``(node, ancestor names)`` over a serialized tree, preorder."""
    yield node, ancestors
    inner = ancestors + (node["name"],)
    for child in node["children"]:
        yield from walk(child, inner)
