module existdlog/benchmark

go 1.22

// Part 2 (./layers) times the product's layers in-process; Part 1 (this
// directory) and ./gen import the standard library only.
require existdlog v0.0.0

replace existdlog => ../
