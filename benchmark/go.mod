module bao/benchmark

go 1.22

require bao v0.0.0

replace bao => ../
