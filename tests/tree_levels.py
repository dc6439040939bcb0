"""Per-level views of a tree's node arrays, for tests whose references and
pinned digests read a tree one level at a time.

A level's parent here is the index of each node's parent within the level
above, as trees were once stored; the tree itself holds node numbers."""
from typing import NamedTuple

import numpy as np


class LevelRows(NamedTuple):
    parent: np.ndarray
    prob: np.ndarray
    incr: np.ndarray


def per_level(flat, bounds):
    """Entries bounds[k] to bounds[k+1] - 1 of a node-ordered array, for each level k."""
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def level_arrays(tree):
    """Each level k >= 1 of a tree as LevelRows, level k at index k-1: the
    prob and incr slices, and parent less the first node number of level k-1,
    as intp."""
    b = tree.bounds
    return [LevelRows((tree.parent[b[k]:b[k + 1]] - b[k - 1]).astype(np.intp),
                      tree.prob[b[k]:b[k + 1]], tree.incr[b[k]:b[k + 1]])
            for k in range(1, len(b) - 1)]


def node_arrays(levels, dim):
    """ProbTree's parent, prob and incr from (parent, prob, incr) levels whose
    parent indexes the level above: the inverse of level_arrays."""
    sizes = [len(lvl[0]) for lvl in levels]
    tops = np.cumsum([0, 1, *sizes])[:len(sizes)]   # first node of each level above
    parent = np.concatenate([np.empty(0, np.intp)]
                            + [lvl[0] + top for lvl, top in zip(levels, tops)])
    prob = np.concatenate([np.empty(0)] + [lvl[1] for lvl in levels])
    incr = np.concatenate([np.empty((0, dim))] + [lvl[2] for lvl in levels])
    return parent, prob, incr
