"""Seeded building models for the `rooms` and `sim` workloads, and the
tuple model that checks what the engine does with them.

A building has R rooms, each its own region, so isomorphism never
permutes rooms. Doors (one ``Door`` node per room per door, linked by a
closed edge) join the rooms in a random connected graph. K identical
intruders move along doors with the ``move`` rule of
``models/secure_building.big``. An instantaneous class raises one
``Alarm`` in a camera room that an intruder is in.

The tuple model describes a state as ``(counts, alarms)``: intruders per
room and the alarm bit per room. It shares no code with bigengine; the
only contact is ``decode``, which reads a state's place graph back into
that tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

PREDICATES = ("seen", "atServer", "crowded")


@dataclass(frozen=True)
class Building:
    rooms: int
    doors: tuple            # sorted (a, b) room pairs with a < b
    cameras: frozenset
    server: int
    start: tuple            # intruders per room in the initial state


def draw(rng, rooms, extra_doors, intruders, cameras) -> Building:
    """A random spanning tree plus `extra_doors` random chords."""
    order = list(range(rooms))
    rng.shuffle(order)
    doors = set()
    for i in range(1, rooms):
        a, b = order[i], order[rng.randrange(i)]
        doors.add((min(a, b), max(a, b)))
    chords = [p for p in itertools.combinations(range(rooms), 2) if p not in doors]
    doors.update(rng.sample(chords, extra_doors))
    start = [0] * rooms
    for _ in range(intruders):
        start[rng.randrange(rooms)] += 1
    return Building(rooms=rooms, doors=tuple(sorted(doors)),
                    cameras=frozenset(rng.sample(range(rooms), cameras)),
                    server=rng.randrange(rooms), start=tuple(start))


def draw_sized(rng, shape, states, transitions, attempts=10000) -> Building:
    """Draw buildings of `shape` until the tuple model reaches exactly
    `states` states and `transitions` transitions, so that every seed
    asks the engine for the same amount of work."""
    for _ in range(attempts):
        b = draw(rng, **shape)
        _, order, trans = reachable(b)
        if len(order) == states and len(trans) == transitions:
            return b
    raise ValueError("no building of shape %r has %d states and %d transitions"
                     % (shape, states, transitions))


def big_text(b: Building) -> str:
    """The model as bigengine source text."""
    rooms = []
    for r in range(b.rooms):
        kids = ["Intruder"] * b.start[r]
        if r in b.cameras:
            kids.append("Camera")
        if r == b.server:
            kids.append("Server")
        kids += ["Door{d%d}" % k for k, door in enumerate(b.doors) if r in door]
        rooms.append("Room.(%s)" % " | ".join(kids) if kids else "Room.1")
    closures = "".join("/d%d" % k for k in range(len(b.doors)))
    return _TEMPLATE % (closures, "\n|| ".join(rooms))


_TEMPLATE = """\
atomic ctrl Intruder = 0;
atomic ctrl Camera = 0;
atomic ctrl Alarm = 0;
atomic ctrl Server = 0;
atomic ctrl Door = 1;
ctrl Room = 0;

react move =
  Room.(Intruder | Door{x} | id) || Room.(id | Door{x})
  -->
  Room.(Door{x} | id) || Room.(Intruder | id | Door{x});

react detect =
  Room.(Intruder | Camera | id)
  -->
  Room.(Intruder | Camera | Alarm | id)
  if !Alarm in param;

big seen = Room.(Intruder | Camera | id);
big atServer = Room.(Intruder | Server | id);
big crowded = Room.(Intruder | Intruder | id);

big building = %s (
   %s);

begin brs
  init building;
  rules = [ (detect), {move} ];
  preds = {seen, atServer, crowded};
end
"""


# -- the tuple model -----------------------------------------------------

def _settle(b: Building, counts, alarms):
    return (tuple(counts),
            tuple(1 if alarms[r] or (r in b.cameras and counts[r]) else 0
                  for r in range(b.rooms)))


def initial(b: Building):
    return _settle(b, b.start, (0,) * b.rooms)


def successors(b: Building, state) -> set:
    counts, alarms = state
    out = set()
    for a, c in b.doors:
        for src, dst in ((a, c), (c, a)):
            if counts[src]:
                moved = list(counts)
                moved[src] -= 1
                moved[dst] += 1
                out.add(_settle(b, moved, alarms))
    return out


def reachable(b: Building):
    """(initial state, states in breadth-first order, transition set)."""
    init = initial(b)
    order, seen, trans = [init], {init}, set()
    for s in order:
        for t in successors(b, s):
            trans.add((s, t))
            if t not in seen:
                seen.add(t)
                order.append(t)
    return init, order, trans


def labels(b: Building, state) -> tuple:
    """Names of the predicates that hold in a state, in PREDICATES order."""
    counts, _ = state
    holds = {
        "seen": any(counts[r] for r in b.cameras),
        "atServer": counts[b.server] > 0,
        "crowded": any(c >= 2 for c in counts),
    }
    return tuple(p for p in PREDICATES if holds[p])


def decode(b: Building, big):
    """Read an engine state back into the tuple model. Raises ValueError
    when anything but intruders and alarms differs from the building."""
    room_of = {}
    for i, c in enumerate(big.ctrl):
        if c == "Room":
            (parent,) = big.node_parents[i]
            if parent[0] != "r":
                raise ValueError("room nested in %r" % (parent,))
            room_of[i] = parent[1]
    if sorted(room_of.values()) != list(range(b.rooms)) or big.regions != b.rooms:
        raise ValueError("rooms do not match the building")
    counts, alarms = [0] * b.rooms, [0] * b.rooms
    cameras, servers, door_links = set(), [], {}
    for i, c in enumerate(big.ctrl):
        if c == "Room":
            continue
        (parent,) = big.node_parents[i]
        if parent[0] != "n" or parent[1] not in room_of:
            raise ValueError("%s outside a room" % c)
        room = room_of[parent[1]]
        if c == "Intruder":
            counts[room] += 1
        elif c == "Alarm":
            alarms[room] += 1
        elif c == "Camera":
            cameras.add(room)
        elif c == "Server":
            servers.append(room)
        elif c == "Door":
            door_links.setdefault(big.ports[i][0], []).append(room)
        else:
            raise ValueError("unexpected control %s" % c)
    doors = sorted(tuple(sorted(rs)) for rs in door_links.values())
    if (frozenset(cameras), servers, tuple(doors)) != (b.cameras, [b.server], b.doors):
        raise ValueError("fixed furniture of the building changed")
    return tuple(counts), tuple(alarms)


# -- expected exports, in the engine's state numbering --------------------

def expected_exports(b: Building, numbering) -> tuple[bytes, bytes, bytes]:
    """Transition table, label map and dot rendering that the README's
    formats prescribe for the tuple model, with states numbered as in
    `numbering` (a list of tuple states, index = engine state index)."""
    index = {s: i for i, s in enumerate(numbering)}
    edges = sorted((i, index[t]) for i, s in enumerate(numbering)
                   for t in successors(b, s))
    outdeg = [0] * len(numbering)
    for i, _ in edges:
        outdeg[i] += 1
    rows = [(i, j, "1" if outdeg[i] == 1 else repr(1 / outdeg[i])) for i, j in edges]
    rows += [(i, i, "1") for i, d in enumerate(outdeg) if not d]
    rows.sort(key=lambda r: (r[0], r[1]))
    tra = ["%d %d" % (len(numbering), len(rows))] + ["%d %d %s" % r for r in rows]

    lab = [" ".join(['0="init"'] + ['%d="%s"' % (k + 1, p) for k, p in enumerate(PREDICATES)])]
    dot = ["digraph transition_system {"]
    for i, s in enumerate(numbering):
        names = labels(b, s)
        marks = ([0] if i == 0 else []) + [PREDICATES.index(p) + 1 for p in names]
        if marks:
            lab.append("%d: %s" % (i, " ".join(str(m) for m in marks)))
        text = "%d: %s" % (i, " ".join(names)) if names else str(i)
        dot.append('  %d [label="%s"%s];' % (i, text, ", style=bold" if i == 0 else ""))
    dot += ["  %d -> %d;" % e for e in edges]
    dot.append("}")
    return tuple(("\n".join(x) + "\n").encode() for x in (tra, lab, dot))
