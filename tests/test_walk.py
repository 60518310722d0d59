"""``Node.walk``: the iterative preorder is the recursive definition's.

The reference below is the recursive generator ``Node.walk`` used to be.
It costs O(nodes x depth), because every item passes up through one
``yield from`` per level, and it exceeds the interpreter's recursion
limit on a deep tree.
"""

import random

from repro.datum import NIL
from repro.ir import Converter, IfNode, LambdaNode, LiteralNode
from repro.reader import read

from .genprog import generate_function

# Every node kind the converter produces: catcher, caseq, progbody with
# go/return/setq, &optional defaults, lets (lambda calls) and the generated
# expressions' if/call/literal/variable nodes.  The expressions use at most
# the variables a0..a2, which the lets bind.
TEMPLATE = """
(defun w (x &optional (y (+ x 1)) (z (let ((a0 x) (a1 y) (a2 x)) {0})))
  (let ((a0 x) (a1 y) (a2 z))
    (catch 'out
      (caseq (rem x 3)
        ((0) (prog (i)
                (setq i {1})
              loop
                (if (> i 3) (return i))
                (setq i (1+ i))
                (go loop)))
        ((1) (throw 'out {2}))
        (t {3})))))
"""


def recursive_walk(node):
    yield node
    for child in node.children():
        yield from recursive_walk(child)


def _expression(rng: random.Random) -> str:
    source, _ = generate_function(rng, max_depth=5)
    # "(defun f (a0 ...) BODY)": the body follows the parameter list.
    return source[source.index(")") + 2:-1]


def converted_programs(count: int):
    for seed in range(count):
        rng = random.Random(seed)
        text = TEMPLATE.format(*(_expression(rng) for _ in range(4)))
        yield Converter().convert_defun(read(text))[1]


def test_walk_matches_the_recursive_preorder_on_every_node_kind():
    kinds = set()
    for tree in converted_programs(40):
        walked = list(tree.walk())
        assert walked == list(recursive_walk(tree))
        assert len({id(node) for node in walked}) == len(walked)
        kinds.update(node.KIND for node in walked)
        assert any(isinstance(node, LambdaNode) and node.optionals
                   for node in walked)
    assert kinds >= {"literal", "variable", "function-ref", "if", "lambda",
                     "call", "progn", "setq", "progbody", "go", "return",
                     "caseq", "catcher"}


def test_a_3000_deep_if_chain_walks_to_completion():
    depth = 3000
    tests = [LiteralNode(i) for i in range(depth)]
    elses = [LiteralNode(NIL) for _ in range(depth)]
    node = LiteralNode("bottom")
    bottom = node
    chain = []
    for test, else_ in zip(tests, elses):
        node = IfNode(test, node, else_)
        chain.append(node)
    expected = []
    for index in reversed(range(depth)):
        expected += [chain[index], tests[index]]
    expected.append(bottom)
    expected += elses
    assert list(node.walk()) == expected
