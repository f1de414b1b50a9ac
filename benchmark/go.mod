module fsaicomm/benchmark

go 1.22

require fsaicomm v0.0.0

replace fsaicomm => ../
