"""Twist-ladder layouts found by trial against the guards: a test-only oracle.

The PD code does not say which pairing of the cut ends of two channel
edges is adjacent, nor on which side of the page their shared face lies.
This oracle tries the four (swap, reflect) layouts in a fixed order,
builds ladders of one and two half twists with ``symknot.diagram``'s
``_lay_ladder`` for each, and keeps the first layout whose ladders stay
planar, coherently oriented and component preserving.  The package reads
the layout off the shared face instead.
"""

from __future__ import annotations

from symknot.diagram import DiagramStructureError, PlanarDiagram, _lay_ladder

# (swap rail ends of the second edge, reflect east-west), in trial order
LAYOUTS = ((False, False), (False, True), (True, False), (True, True))


def trial_layout(d: PlanarDiagram, x: int, y: int) -> tuple[bool, bool]:
    """The first layout in ``LAYOUTS`` that survives the guards for m = 1 and 2.

    One parity alone can pass by accident when the rail ends are paired
    across, so both are built.  Raises DiagramStructureError if none does.
    """
    for layout in LAYOUTS:
        try:
            for m in (1, 2):
                out, _ = _lay_ladder(d, x, y, m, True, layout)
                if out.n_components() != d.n_components():
                    raise DiagramStructureError("rail pairing changes component count")
        except ValueError:
            continue
        return layout
    raise DiagramStructureError("no layout survives the guards")
