#!/bin/sh
# Builds the benchmark from the source tree in the current directory (the
# repository root) and runs it; every argument goes to bench.exe (see
# README.md).
exec dune exec --root . --display quiet ./perfbench/bench.exe -- "$@"
