module plshuffle/benchmark

go 1.22

require plshuffle v0.0.0

replace plshuffle => ../
