module cables/benchmark

go 1.22

require cables v0.0.0

replace cables => ../
