"""Per-level views of a tree's node arrays, for tests whose references and
pinned digests read a tree one level at a time, and the conversions between
a forest and its trees that the forest tests compare against.

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


def forest_tree(forest, t):
    """Tree t of a forest as its own (root, parent, prob, incr): its share of
    every level in turn, with parents renumbered as node numbers of the tree
    alone."""
    nodes = np.concatenate([np.arange(row[t], row[t + 1]) for row in forest.tree_bounds])
    own = np.empty(forest.bounds[-1], np.intp)
    own[nodes] = np.arange(len(nodes))
    rows = nodes[1:]
    return forest.incr[nodes[0]], own[forest.parent[rows]], forest.prob[rows], forest.incr[rows]


def forest_of(trees, weights=None):
    """The Forest of ProbTrees of one depth and dimension, with the root
    weights given: level by level, each tree's level in turn, parents
    renumbered as forest node numbers."""
    from martcheck.ptree import Forest
    blocks = [(k, i) for k in range(trees[0].depth + 1) for i in range(len(trees))]
    sizes = [trees[i].bounds[k + 1] - trees[i].bounds[k] for k, i in blocks]
    starts = dict(zip(blocks, np.cumsum([0] + sizes).tolist()))
    renumber = []   # each tree's node number -> forest node number
    for i, tree in enumerate(trees):
        new = np.empty(tree.bounds[-1], np.intp)
        for k in range(tree.depth + 1):
            a, b = tree.bounds[k], tree.bounds[k + 1]
            new[a:b] = starts[k, i] + np.arange(b - a)
        renumber.append(new)
    rows = [(i, slice(trees[i].bounds[k], trees[i].bounds[k + 1])) for k, i in blocks[len(trees):]]
    parent = np.concatenate([np.empty(0, np.intp)]
                            + [renumber[i][trees[i].parent[s]] for i, s in rows])
    prob = np.concatenate([np.empty(0)] + [trees[i].prob[s] for i, s in rows])
    incr = np.concatenate([np.empty((0, trees[0].dim))] + [trees[i].incr[s] for i, s in rows])
    return Forest([tree.m0 for tree in trees], parent, prob, incr, weights)
