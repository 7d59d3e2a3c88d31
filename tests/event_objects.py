"""Generated streams as ``Event`` objects.

``workload()`` emits one ``EventColumns`` batch per node.  A test that
runs it through a public door as objects — as the door's callers may —
goes through :func:`event_objects`, so the object arm of every door keeps
its coverage.
"""


def event_objects(streams):
    """``streams`` with each node's batch as a ``list`` of ``Event``."""
    return {node_id: list(share) for node_id, share in streams.items()}
