"""Scalar overlap counts: the kernel and index-map tests compare against these.

Each count applies the group's scalar ``multiply`` to one ball element at a
time, independently of the index maps the package counts overlaps with.
"""

from spectrunc import ball


def ball_overlap(group, x, radius: int) -> int:
    """Size of the intersection of the ball with its left translate by x."""
    b = ball(group, radius)
    xi = group.inverse(x)
    return sum(group.multiply(xi, y) in b for y in b.elements)


def folner_deficit(group, x, radius: int) -> int:
    """Number of ball elements lost under left translation by x."""
    return len(ball(group, radius)) - ball_overlap(group, x, radius)
