"""Behavioural language-feature matrix: every DapperC construct must
produce identical results on both simulated ISAs."""

import pytest

from repro.compiler import compile_source
from repro.testing import lockstep
from repro.testing.lockstep import Track


def run_both(source, name="sem"):
    program = compile_source(source, name)
    outs = []
    for arch in lockstep.ARCHES:
        track = Track(program, arch, "chains")
        track.run()
        assert track.process.exit_code == 0, (arch, track.process.exit_code)
        outs.append(track.process.stdout())
    assert outs[0] == outs[1], "ISAs disagree"
    return outs[0]


CASES = {
    "comparisons": ("""
func main() -> int {
    print(3 < 5); print(5 < 3); print(3 <= 3);
    print(4 > 4); print(4 >= 4); print(1 == 1); print(1 != 1);
    print(-2 < 1); print(-5 > -9);
    return 0;
}
""", "1\n0\n1\n0\n1\n1\n0\n1\n1\n"),

    "bitwise": ("""
func main() -> int {
    print(12 & 10); print(12 | 10); print(12 ^ 10);
    print(3 << 4); print(255 >> 4);
    return 0;
}
""", "8\n14\n6\n48\n15\n"),

    "logical_short_circuit": ("""
func main() -> int {
    int a;
    a = 5;
    print(a > 1 && a < 10);
    print(a > 9 || a == 5);
    print(!a);
    print(!(a - 5));
    return 0;
}
""", "1\n1\n0\n1\n"),

    "nested_loops": ("""
func main() -> int {
    int i; int j; int acc;
    acc = 0;
    i = 0;
    while (i < 5) {
        j = 0;
        while (j < i) {
            acc = acc + i * j;
            j = j + 1;
        }
        i = i + 1;
    }
    print(acc);
    return 0;
}
""", "35\n"),

    "break_continue": ("""
func main() -> int {
    int i; int acc;
    acc = 0;
    i = 0;
    while (i < 100) {
        i = i + 1;
        if (i % 2 == 0) { continue; }
        if (i > 10) { break; }
        acc = acc + i;
    }
    print(acc);
    print(i);
    return 0;
}
""", "25\n11\n"),

    "recursion": ("""
func fib(int n) -> int {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main() -> int {
    print(fib(12));
    return 0;
}
""", "144\n"),

    "mutual_recursion": ("""
func is_even(int n) -> int {
    if (n == 0) { return 1; }
    return is_odd(n - 1);
}
func is_odd(int n) -> int {
    if (n == 0) { return 0; }
    return is_even(n - 1);
}
func main() -> int {
    print(is_even(10));
    print(is_odd(7));
    return 0;
}
""", "1\n1\n"),

    "arrays_and_pointers": ("""
func main() -> int {
    int a[5]; int *p; int i;
    i = 0;
    while (i < 5) { a[i] = i * i; i = i + 1; }
    p = &a[0];
    print(*p);
    p = p + 3;
    print(*p);
    print(p - &a[0]);
    *p = 100;
    print(a[3]);
    return 0;
}
""", "0\n9\n24\n100\n"),

    "pointer_args": ("""
func swap(int *x, int *y) {
    int t;
    t = *x;
    *x = *y;
    *y = t;
}
func main() -> int {
    int a; int b;
    a = 1;
    b = 2;
    swap(&a, &b);
    print(a);
    print(b);
    return 0;
}
""", "2\n1\n"),

    "global_arrays": ("""
global int table[8];
func fill(int n) {
    int i;
    i = 0;
    while (i < n) { table[i] = i + 10; i = i + 1; }
}
func main() -> int {
    fill(8);
    print(table[0] + table[7]);
    return 0;
}
""", "27\n"),

    "global_pointer": ("""
global int *gp;
global int target;
func main() -> int {
    gp = &target;
    *gp = 55;
    print(target);
    return 0;
}
""", "55\n"),

    "tls_basic": ("""
tls int counter;
func bump() { counter = counter + 1; }
func main() -> int {
    bump(); bump(); bump();
    print(counter);
    return 0;
}
""", "3\n"),

    "unary_minus": ("""
func main() -> int {
    int x;
    x = 7;
    print(-x);
    print(-(-x));
    print(-x * -x);
    return 0;
}
""", "-7\n7\n49\n"),

    "deep_expression": ("""
func main() -> int {
    int a;
    a = ((1 + 2) * (3 + 4) - (5 - 6)) * ((7 + 8) / (2 + 1));
    print(a);
    return 0;
}
""", "110\n"),

    "call_in_args": ("""
func double(int x) -> int { return x * 2; }
func addup(int a, int b, int c) -> int { return a + b + c; }
func main() -> int {
    print(addup(double(1), double(double(2)), double(3)));
    return 0;
}
""", "16\n"),

    "void_functions": ("""
global int sink;
func record(int v) { sink = sink + v; }
func main() -> int {
    record(3);
    record(4);
    print(sink);
    return 0;
}
""", "7\n"),

    "hex_literals": ("""
func main() -> int {
    print(0x10);
    print(0xFF & 0x0F);
    return 0;
}
""", "16\n15\n"),

    "big_frames": ("""
func chunky(int seed) -> int {
    int a[40]; int b[40]; int i; int acc;
    i = 0;
    while (i < 40) {
        a[i] = seed + i;
        b[i] = a[i] * 2;
        i = i + 1;
    }
    acc = 0;
    i = 0;
    while (i < 40) { acc = acc + b[i]; i = i + 1; }
    return acc;
}
func main() -> int {
    print(chunky(1));
    return 0;
}
""", "1640\n"),

    "implicit_return_zero": ("""
func noret() -> int { }
func main() -> int {
    print(noret());
    return 0;
}
""", "0\n"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_semantics(case):
    source, expected = CASES[case]
    assert run_both(source, f"sem_{case}") == expected
