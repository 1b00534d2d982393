module sapspsgd/benchmark

go 1.23

require sapspsgd v0.0.0

replace sapspsgd => ../
