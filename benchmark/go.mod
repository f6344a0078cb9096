module hoplite/benchmark

go 1.21

require hoplite v0.0.0

replace hoplite => ../
