"""The benchmark harness traces the program by wrapping entry points.

``perfbench/spans.py`` wraps each ``(owner, attribute)`` its
``_targets()`` names; a removed or renamed entry point would break every
traced benchmark run, so every one of them must resolve to a callable.
"""

from perfbench.spans import _targets


def test_every_traced_entry_point_resolves_to_a_callable():
    targets = _targets()
    assert targets
    for owner, attribute, span in targets:
        assert callable(getattr(owner, attribute, None)), (
            "span %r wraps %s.%s, which is gone" % (span, owner.__name__, attribute)
        )
