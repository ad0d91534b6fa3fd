#!/bin/sh
# Fail if any function of the exact replay path, or of the app path that
# builds and runs MPI rank programs (lib/isa's [Insn.make] runs once per
# app instruction), calls OCaml's polymorphic comparison.  Such a call
# costs a C call per use, and leaves array reads
# checking for float arrays; it appears wherever a comparison is left at
# type 'a (an unannotated array or a bare [compare]).
#
# Reads the release-profile native objects, so build those first:
#   dune build --profile release bench/main.exe bin/simbridge_cli.exe
#   sh tools/hotpath-lint.sh
# Prints one line per offending call (object, function, primitive) and
# exits 1 if there is any; prints nothing and exits 0 otherwise.
set -eu

build=_build/default
libs="uarch cache dram platform branch interconnect smpi trace prog workloads isa"
# Single modules of other libraries that the replay path calls into.
mods="util/.util.objs/native/util__Ring.o"
prims='caml_(lessthan|greaterthan|lessequal|greaterequal|compare|equal|notequal)'

objs=""
for lib in $libs; do
  for o in "$build"/lib/"$lib"/.*.objs/native/*.o; do
    [ -f "$o" ] || { echo "hotpath-lint: no native objects for lib/$lib under $build" >&2; exit 2; }
    objs="$objs $o"
  done
done
for m in $mods; do
  [ -f "$build/lib/$m" ] || { echo "hotpath-lint: no native object lib/$m under $build" >&2; exit 2; }
  objs="$objs $build/lib/$m"
done

found=$(for o in $objs; do
  objdump -dr "$o" | awk -v obj="$(basename "$o")" -v prims="$prims" '
    />:$/ { fn = $2; gsub(/[<>:]/, "", fn) }
    /R_[A-Z0-9_]+/ && $NF ~ ("^" prims "([-+]|$)") {
      prim = $NF; sub(/[-+].*/, "", prim); print obj ": " fn " calls " prim
    }'
done)

if [ -n "$found" ]; then
  echo "$found"
  exit 1
fi
