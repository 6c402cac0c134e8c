module circuitstart/benchmark

go 1.21

require circuitstart v0.0.0

replace circuitstart => ../
