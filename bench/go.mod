module ibox/bench

go 1.22

require ibox v0.0.0

replace ibox => ../
