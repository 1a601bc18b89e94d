module ceresz/bench

go 1.22

require ceresz v0.0.0

replace ceresz => ../
