module arckfs/benchmark

go 1.23

require arckfs v0.0.0

replace arckfs => ../
